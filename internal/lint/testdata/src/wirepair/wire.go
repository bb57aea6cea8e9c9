// Package wirepair is the fixture for the wirepair analyzer.
package wirepair

import "errors"

// MsgType is the 1-byte wire tag, as in internal/proto.
type MsgType byte

const (
	TPut    MsgType = iota + 1 // two Type() methods claim this below
	TGet                       // message lacks an encode method
	TDel                       // Decode arm constructs the wrong type
	TAck                       // want `wire tag TAck has no case arm in Decode`
	TOrphan                    // want `wire tag TOrphan has no message type`
	TStat                      // fully paired: no diagnostics

	// The elasticity vocabulary: move and resize messages mirror
	// internal/proto's TMove/TResize family.
	TMove        // fully paired: no diagnostics
	TMoveReply   // Decode arm crossed with Move
	TResize      // fully paired: no diagnostics
	TResizeReply // want `wire tag TResizeReply has no case arm in Decode`

	// TFrame is a frame envelope: written by the batcher, stripped
	// before Decode ever runs, so it deliberately has no message type.
	TFrame MsgType = 0xFF //ring:wireframe envelope tag
)

type Put struct{ K, V string }

func (*Put) Type() MsgType   { return TPut } // want `duplicate wire tag TPut`
func (*Put) encode(b []byte) {}

// PutV2 illegally reuses Put's tag.
type PutV2 struct{ K, V, Meta string }

func (*PutV2) Type() MsgType   { return TPut } // want `duplicate wire tag TPut`
func (*PutV2) encode(b []byte) {}

type Get struct{ K string }

func (*Get) Type() MsgType { return TGet } // want `message type Get \(tag TGet\) has no encode method`

type Del struct{ K string }

func (*Del) Type() MsgType   { return TDel }
func (*Del) encode(b []byte) {}

type Ack struct{ Seq uint64 }

func (*Ack) Type() MsgType   { return TAck }
func (*Ack) encode(b []byte) {}

type Stat struct{ N int }

func (*Stat) Type() MsgType   { return TStat }
func (*Stat) encode(b []byte) {}

type Move struct{ K string }

func (*Move) Type() MsgType   { return TMove }
func (*Move) encode(b []byte) {}

type MoveReply struct{ Ver uint64 }

func (*MoveReply) Type() MsgType   { return TMoveReply }
func (*MoveReply) encode(b []byte) {}

type Resize struct{ Node uint32 }

func (*Resize) Type() MsgType   { return TResize }
func (*Resize) encode(b []byte) {}

type ResizeReply struct{ Moved uint32 }

func (*ResizeReply) Type() MsgType   { return TResizeReply }
func (*ResizeReply) encode(b []byte) {}

func decPut(b []byte) *Put       { return &Put{} }
func decGet(b []byte) *Get       { return &Get{} }
func decStat(b []byte) *Stat     { return &Stat{} }
func decMove(b []byte) *Move     { return &Move{} }
func decResize(b []byte) *Resize { return &Resize{} }

// Decode is the dispatch switch the analyzer pairs against Type().
func Decode(b []byte) (interface{}, error) {
	if len(b) == 0 {
		return nil, errors.New("short buffer")
	}
	switch MsgType(b[0]) {
	case TPut:
		m := decPut(b[1:])
		return m, nil
	case TGet:
		m := decGet(b[1:])
		return m, nil
	case TDel: // want `Decode arm for tag TDel constructs \*Put, but Del's Type\(\) returns TDel`
		m := decPut(b[1:])
		return m, nil
	case TStat:
		m := decStat(b[1:])
		return m, nil
	case TMove:
		m := decMove(b[1:])
		return m, nil
	case TMoveReply: // want `Decode arm for tag TMoveReply constructs \*Move, but MoveReply's Type\(\) returns TMoveReply`
		m := decMove(b[1:])
		return m, nil
	case TResize:
		m := decResize(b[1:])
		return m, nil
	}
	return nil, errors.New("unknown tag")
}
