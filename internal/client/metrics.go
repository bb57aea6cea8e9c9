package client

import "ring/internal/metrics"

// Metrics holds the process-wide client instruments, registered in
// metrics.Default under "client.*". Process-scoped like the transport
// counters: every client in this process (there is typically one per
// tool or benchmark) accumulates into them.
var Metrics struct {
	// Requests counts operations issued (first attempts only);
	// Retries counts resends on top of those.
	Requests metrics.Counter
	Retries  metrics.Counter
	// Packets counts the packets requests left in: Requests plus
	// Retries plus Resolves' probes, over Packets, is how many requests
	// the outboxes put in a packet.
	Packets metrics.Counter
	// Timeouts counts attempts that expired without a reply.
	Timeouts metrics.Counter
	// Resolves counts configuration re-discoveries: the Resolve before
	// each resend, and each ask of every node at once.
	Resolves metrics.Counter
	// PipelineDepth is the high-water mark of concurrently executing
	// pipelined operations.
	PipelineDepth metrics.MaxGauge
}

func init() {
	d := metrics.Default
	d.Register("client.requests", &Metrics.Requests)
	d.Register("client.retries", &Metrics.Retries)
	d.Register("client.packets", &Metrics.Packets)
	d.Register("client.timeouts", &Metrics.Timeouts)
	d.Register("client.resolves", &Metrics.Resolves)
	d.Register("client.pipeline_depth", &Metrics.PipelineDepth)
}
