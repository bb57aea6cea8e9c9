package status

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// marshalJSON renders v byte for byte as json.NewEncoder with
// SetIndent("", "  ") does, without linking the encoder into every node,
// for what the JSON routes serve: no MarshalJSON or MarshalText method is
// consulted, and embedded fields, []byte and tag options but omitempty fail.
func marshalJSON(v any) (out []byte, err error) {
	defer func() {
		r := recover()
		if e, ok := r.(jsonError); ok {
			out, err = nil, e
		} else if r != nil {
			panic(r)
		}
	}()
	return append(appendJSON(nil, reflect.ValueOf(v), 0), '\n'), nil
}

// jsonError is what marshalJSON fails with, in the encoder's words.
type jsonError string

func (e jsonError) Error() string { return string(e) }

// member is one element of an array, or one key and value of an object.
type member struct {
	key string
	val reflect.Value
}

func appendJSON(b []byte, v reflect.Value, depth int) []byte {
	var ms []member
	open, end := byte('{'), byte('}')
	switch k := v.Kind(); {
	case k == reflect.Invalid || (k == reflect.Interface || k == reflect.Pointer || k == reflect.Map || k == reflect.Slice) && v.IsNil():
		return append(b, "null"...)
	case k == reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case v.CanInt():
		return strconv.AppendInt(b, v.Int(), 10)
	case v.CanUint():
		return strconv.AppendUint(b, v.Uint(), 10)
	case v.CanFloat():
		return appendFloat(b, v.Float(), v.Type().Bits())
	case k == reflect.String:
		return appendString(b, v.String())
	case k == reflect.Interface || k == reflect.Pointer:
		return appendJSON(b, v.Elem(), depth)
	case k == reflect.Array || k == reflect.Slice && v.Type().Elem().Kind() != reflect.Uint8:
		open, end = '[', ']'
		for i := 0; i < v.Len(); i++ {
			ms = append(ms, member{val: v.Index(i)})
		}
	case k == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			tag := f.Tag.Get("json")
			name, opt, _ := strings.Cut(tag, ",")
			switch {
			case f.Anonymous || opt != "" && opt != "omitempty":
				panic(jsonError("json: unsupported type: " + v.Type().String()))
			case !f.IsExported() || tag == "-" || opt == "omitempty" && isEmpty(fv):
				continue
			}
			ms = append(ms, member{cmp.Or(name, f.Name), fv})
		}
	case k == reflect.Map:
		for it := v.MapRange(); it.Next(); { // keys sort by their text
			key, text := it.Key(), it.Key().String()
			if key.CanInt() || key.CanUint() {
				text = string(appendJSON(nil, key, 0))
			} else if key.Kind() != reflect.String {
				panic(jsonError("json: unsupported type: " + v.Type().String()))
			}
			ms = append(ms, member{text, it.Value()})
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	default:
		panic(jsonError("json: unsupported type: " + v.Type().String()))
	}
	b, sep := append(b, open), "\n"
	for _, m := range ms {
		b = append(append(b, sep...), strings.Repeat("  ", depth+1)...)
		sep = ",\n"
		if open == '{' {
			b = append(appendString(b, m.key), ": "...)
		}
		b = appendJSON(b, m.val, depth+1)
	}
	if len(ms) > 0 { // an empty array or object stays "[]" or "{}"
		b = append(append(b, '\n'), strings.Repeat("  ", depth)...)
	}
	return append(b, end)
}

// isEmpty is omitempty's test; no struct is empty, and -0 is.
func isEmpty(v reflect.Value) bool {
	if k := v.Kind(); k == reflect.Array || k == reflect.Map || k == reflect.Slice || k == reflect.String {
		return v.Len() == 0
	}
	return v.Kind() != reflect.Struct && (v.IsZero() || v.CanFloat() && v.Float() == 0)
}

// appendFloat formats f as ES6 does: 'f' from 1e-6 to 1e21, else 'e'.
func appendFloat(b []byte, f float64, bits int) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(jsonError("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, bits)))
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2], b = b[n-1], b[:n-1] // e-07 is e-7
	}
	return b
}

// appendString quotes s with the encoder's escapes, HTML's and those of
// U+2028, U+2029 and each byte of invalid UTF-8 included.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		switch j := strings.IndexRune("\"\\\b\f\n\r\t", r); {
		case j >= 0:
			b = append(b, '\\', `"\bfnrt`[j])
		case r < ' ' || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029' || r == utf8.RuneError && size == 1:
			b = fmt.Appendf(b, `\u%04x`, r)
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}
