package transport

import (
	"ring/internal/metrics"
	"ring/internal/proto"
)

// Metrics holds the process-wide transport instruments, registered in
// metrics.Default under "transport.*". They are process-scoped (all
// endpoints of all fabrics in this process share them) because that is
// what a /debug/ringvars scrape of one ringd can meaningfully report.
var Metrics struct {
	// PacketsSent / BytesSent count every payload accepted by Send;
	// BatchedSent is the subset that coalesces (proto.Coalesced: a
	// TBatch, or one folded run of acks or commits), so the batching
	// ratio of the send path is visible.
	PacketsSent metrics.Counter
	BytesSent   metrics.Counter
	BatchedSent metrics.Counter
	// Drops counts packets dropped on purpose (SetDropFunc); SendErrors
	// counts sends that failed (unknown peer, dead dial).
	Drops      metrics.Counter
	SendErrors metrics.Counter
	// PacketsRecv / BytesRecv count packets surfaced to receivers.
	PacketsRecv metrics.Counter
	BytesRecv   metrics.Counter
	// InboxHighWater is the deepest any endpoint inbox has been.
	InboxHighWater metrics.MaxGauge
	// BufAllocBytes counts the bytes AcquireBuf and AcquireBufSize
	// allocated because the pool had no buffer of the class asked for,
	// or because the size asked for is past the largest class.
	BufAllocBytes metrics.Counter
}

func init() {
	d := metrics.Default
	d.Register("transport.packets_sent", &Metrics.PacketsSent)
	d.Register("transport.bytes_sent", &Metrics.BytesSent)
	d.Register("transport.batched_sent", &Metrics.BatchedSent)
	d.Register("transport.drops", &Metrics.Drops)
	d.Register("transport.send_errors", &Metrics.SendErrors)
	d.Register("transport.packets_recv", &Metrics.PacketsRecv)
	d.Register("transport.bytes_recv", &Metrics.BytesRecv)
	d.Register("transport.inbox_high_water", &Metrics.InboxHighWater)
	d.Register("transport.buf_alloc_bytes", &Metrics.BufAllocBytes)
}

// countSend records one accepted outgoing payload.
func countSend(payload []byte) {
	Metrics.PacketsSent.Inc()
	Metrics.BytesSent.Add(uint64(len(payload)))
	if proto.Coalesced(payload) {
		Metrics.BatchedSent.Inc()
	}
}

// countRecv records one payload surfaced to a receiver, plus the inbox
// depth observed when it was enqueued.
func countRecv(payload []byte, inboxDepth int) {
	Metrics.PacketsRecv.Inc()
	Metrics.BytesRecv.Add(uint64(len(payload)))
	Metrics.InboxHighWater.Observe(int64(inboxDepth))
}
