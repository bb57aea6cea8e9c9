// Package testutil holds small helpers shared by Ring's tests.
package testutil

import (
	"reflect"
	"time"
)

// Eventually polls cond every step until it returns true or timeout
// elapses, and reports whether the condition was met. It is the
// sanctioned replacement for bare time.Sleep in tests (enforced by the
// sleepytest analyzer): a polled test passes the moment its condition
// holds and times out loudly when it never does, instead of guessing a
// delay that is wrong on a loaded CI machine and wasteful on a fast
// one. Virtual-time tests should drive the simulator's tickUntil
// instead.
func Eventually(timeout, step time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(step)
	}
}

// PointerFields lists the paths, rooted at name, of every field of ty
// that holds a pointer the collector must follow: a pointer, string,
// slice, map, interface, channel or function, at any depth of structs
// and arrays. A type it returns nothing for is never scanned.
func PointerFields(name string, ty reflect.Type) []string {
	switch ty.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func:
		return []string{name + " is a " + ty.Kind().String()}
	case reflect.Struct:
		var out []string
		for i := range ty.NumField() {
			out = append(out, PointerFields(name+"."+ty.Field(i).Name, ty.Field(i).Type)...)
		}
		return out
	case reflect.Array:
		return PointerFields(name+"[]", ty.Elem())
	}
	return nil
}
