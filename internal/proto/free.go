package proto

import (
	"math"
	"reflect"
	"sync"
)

// free holds the given-back structs of every message type whose wire
// row says free: the messages each operation sends, which a node
// decodes and builds by the thousand a second. Decode and New take from
// it, Release gives back (a node's core.Host, live or simulated);
// whoever never gives back (a client) just allocates, as before.
var free [tEnd]sync.Pool

// alloc returns a message of tag t: a given-back one when there is one.
// Its fields are whatever they last held.
func alloc(t MsgType) Message {
	if wire[t].free {
		if m := free[t].Get(); m != nil {
			return m.(Message)
		}
	}
	return wire[t].make()
}

// New returns a message holding v, taken from the free list of its
// type: the allocation-free way to build a message that Release will
// give back once it is encoded.
func New[T any, P interface {
	*T
	Message
}](v T) P {
	var nilMsg P // Type reads no field
	m := alloc(nilMsg.Type()).(P)
	*m = v
	return m
}

// Release gives m back to its type's free list, from which the next
// Decode or New of that type may take it. The caller must hold the only
// reference: a message is released once, by whoever ends its life — a
// node's runner after the handler of a decoded message returns, or after
// a sent message is encoded. A message type without a free list is left
// to the collector.
func Release(m Message) {
	if t := m.Type(); wire[t].free {
		free[t].Put(m)
	}
}

// junk is what Poison writes into a message's strings and bytes.
const junk = "\xdb\xdb\xdb\xdb\xdb\xdb\xdb\xdb"

var junkBytes = []byte(junk)

// Poison overwrites every field of m with junk — integers all ones,
// flags set, strings and bytes 0xDB — so that code still reading a
// message it gave back reads nonsense at once, not whatever the next
// message decoded into it holds. It is for tests (core.PoisonPayloads).
func Poison(m Message) {
	poison(reflect.ValueOf(m).Elem())
}

func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64) // truncated to the field's width
	case reflect.Int:
		v.SetInt(-1)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(junk)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(junkBytes[:len(junk):len(junk)])
		} else {
			v.SetZero()
		}
	case reflect.Struct:
		for i := range v.NumField() {
			poison(v.Field(i))
		}
	case reflect.Pointer:
		v.SetZero()
	}
}
