package stream

import (
	"fmt"
	"math"
	"strconv"
)

// The state codec. Every accumulator, Dim and Sketch writes its state
// through stateWriter and reads it back through stateReader, one
// buffer and one pass each way.
//
// The bytes are the digest input workers, checkpoints and coordinators
// compare, and they are what encoding/json writes for the same fields:
// keys in a fixed order, floats in its format, null for a nil slice
// and [] for an empty one. Fields that may hold ±Inf or NaN
// (observations from a damaged trace) write them as the strings
// "+Inf", "-Inf" and "NaN"; in the other number fields a non-finite
// value is an error, as it is for encoding/json.
//
// The reader accepts keys in any order and insignificant whitespace,
// and a missing key leaves its field zero. It rejects unknown and
// duplicate keys, escapes in strings, null anywhere but in place of an
// array, numbers outside JSON's grammar, fractions or exponents in
// integer fields, and trailing bytes. So whatever it accepts,
// encoding/json reads with the same meaning.

// stateWriter appends one state's JSON to buf.
type stateWriter struct {
	buf []byte
	err error // the first non-finite value in a plain number field
}

// encode runs write into a fresh buffer.
func encode(write func(*stateWriter)) ([]byte, error) {
	w := stateWriter{buf: make([]byte, 0, 256)}
	write(&w)
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// sep writes the comma a value or key needs after a previous one.
func (w *stateWriter) sep() {
	if n := len(w.buf); n > 0 {
		switch w.buf[n-1] {
		case '{', '[', ':':
		default:
			w.buf = append(w.buf, ',')
		}
	}
}

func (w *stateWriter) key(name string) {
	w.sep()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '"', ':')
}

// open starts an object or array value; close ends it.
func (w *stateWriter) open(c byte) {
	w.sep()
	w.buf = append(w.buf, c)
}

func (w *stateWriter) close(c byte) { w.buf = append(w.buf, c) }

// envelope opens the {"kind":...,"state":{ wrapper every accumulator
// state carries; closeEnvelope ends it.
func (w *stateWriter) envelope(kind string) {
	w.open('{')
	w.str("kind", kind)
	w.key("state")
	w.open('{')
}

func (w *stateWriter) closeEnvelope() { w.buf = append(w.buf, '}', '}') }

// str writes a string field. Every string a state holds is a fixed
// identifier that needs no escaping.
func (w *stateWriter) str(name, v string) {
	w.key(name)
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, v...)
	w.buf = append(w.buf, '"')
}

func (w *stateWriter) int(name string, v int64) {
	w.key(name)
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

func (w *stateWriter) bool(name string, v bool) {
	w.key(name)
	w.buf = strconv.AppendBool(w.buf, v)
}

// num writes a plain number field, which cannot hold ±Inf or NaN.
func (w *stateWriter) num(name string, v float64) {
	w.key(name)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if w.err == nil {
			w.err = fmt.Errorf("stream: cannot encode %v in state field %q", v, name)
		}
		w.buf = append(w.buf, '0')
		return
	}
	w.buf = appendFloat(w.buf, v)
}

// f64 writes a field that may hold ±Inf or NaN.
func (w *stateWriter) f64(name string, v float64) {
	w.key(name)
	w.buf = appendF64(w.buf, v)
}

// ints writes an integer array field (null for a nil slice).
func (w *stateWriter) ints(name string, vs []int64) {
	w.key(name)
	if vs == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.buf = append(w.buf, '[')
	for i, v := range vs {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = strconv.AppendInt(w.buf, v, 10)
	}
	w.buf = append(w.buf, ']')
}

// f64s writes an array of values that may hold ±Inf or NaN, [] for a
// nil slice too: the reservoir sample and GK buffer are never null.
func (w *stateWriter) f64s(name string, vs []float64) {
	w.key(name)
	w.buf = append(w.buf, '[')
	for i, v := range vs {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = appendF64(w.buf, v)
	}
	w.buf = append(w.buf, ']')
}

// appendF64 writes ±Inf and NaN as strings and any other value as a
// number.
func appendF64(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	}
	return appendFloat(b, v)
}

// appendFloat formats a finite float as encoding/json does: the
// shortest round-trip digits, in 'e' form below 1e-6 and from 1e21,
// with a one-digit negative exponent left unpadded.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// stateReader is a single-pass cursor over one state's JSON. Its
// error is sticky: after the first failure every read returns a zero
// value, so a decoder reads its fields straight through and checks
// err once.
type stateReader struct {
	data []byte
	pos  int
	err  error
}

// decode runs read over data, which must hold exactly one value.
func decode[T any](data []byte, read func(*stateReader) T) (T, error) {
	r := stateReader{data: data}
	v := read(&r)
	r.space()
	if r.err == nil && r.pos != len(r.data) {
		r.syntax("trailing bytes")
	}
	return v, r.err
}

// restoreInto replaces *dst with what read makes of data, leaving it
// untouched on error.
func restoreInto[T any](dst *T, data []byte, read func(*stateReader) *T) error {
	v, err := decode(data, read)
	if err == nil {
		*dst = *v
	}
	return err
}

// fail records err unless an earlier failure is already recorded.
func (r *stateReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *stateReader) failf(format string, args ...any) { r.fail(fmt.Errorf(format, args...)) }

func (r *stateReader) syntax(what string) {
	r.failf("stream: corrupt state at byte %d: %s", r.pos, what)
}

// wrap prefixes the recorded error, if any, with context.
func (r *stateReader) wrap(format string, args ...any) {
	if r.err != nil {
		r.err = fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), r.err)
	}
}

func (r *stateReader) space() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// next consumes c if it is the next significant byte.
func (r *stateReader) next(c byte) bool {
	r.space()
	if r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	return false
}

func (r *stateReader) expect(c byte) {
	if r.err == nil && !r.next(c) {
		r.syntax(fmt.Sprintf("want %q", c))
	}
}

// literal consumes the keyword lit (true, false or null) if it comes
// next.
func (r *stateReader) literal(lit string) bool {
	r.space()
	if r.err != nil || len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		return false
	}
	r.pos += len(lit)
	return true
}

// rawString reads a string without escapes and returns its bytes.
func (r *stateReader) rawString() []byte {
	if r.err != nil {
		return nil
	}
	if !r.next('"') {
		r.syntax("want a string")
		return nil
	}
	for start := r.pos; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			return r.data[start : r.pos-1]
		case c == '\\' || c < 0x20:
			r.syntax("escape or control character in a string")
			return nil
		}
	}
	r.syntax("unterminated string")
	return nil
}

// object reads an object whose keys all come from keys, each at most
// once, calling field with the key while the cursor sits on its value.
// It returns the keys seen as a bit set over their indexes in keys.
func (r *stateReader) object(keys []string, field func(key string)) (seen uint32) {
	r.expect('{')
	if r.err != nil || r.next('}') {
		return seen
	}
	for {
		name := r.rawString()
		r.expect(':')
		if r.err != nil {
			return seen
		}
		i := 0
		for i < len(keys) && string(name) != keys[i] {
			i++
		}
		switch {
		case i == len(keys):
			r.failf("stream: corrupt state: unknown key %q", name)
		case seen&(1<<i) != 0:
			r.failf("stream: corrupt state: duplicate key %q", name)
		}
		if r.err != nil {
			return seen
		}
		seen |= 1 << i
		field(keys[i])
		if r.err != nil || !r.next(',') {
			break
		}
	}
	r.expect('}')
	return seen
}

// all is the bit set object returns when every one of keys was seen.
func all(keys []string) uint32 { return 1<<len(keys) - 1 }

var envelopeKeys = []string{"kind", "state"}

// envelope reads the {"kind":kind,"state":{...}} wrapper, reading the
// state object's members with field.
func (r *stateReader) envelope(kind string, keys []string, field func(key string)) {
	seen := r.object(envelopeKeys, func(key string) {
		if key == "state" {
			r.object(keys, field)
			return
		}
		if got := r.rawString(); r.err == nil && string(got) != kind {
			r.failf("stream: state kind %q, want %q", got, kind)
		}
	})
	if r.err == nil && seen != all(envelopeKeys) {
		r.failf("stream: corrupt %s state: the envelope lacks its kind or state", kind)
	}
}

// number reads the bytes of a number in JSON's grammar.
func (r *stateReader) number() []byte {
	if r.err != nil {
		return nil
	}
	r.space()
	d, start := r.data, r.pos
	p := start
	digits := func() bool {
		from := p
		for p < len(d) && d[p] >= '0' && d[p] <= '9' {
			p++
		}
		return p > from
	}
	if p < len(d) && d[p] == '-' {
		p++
	}
	switch {
	case p < len(d) && d[p] == '0':
		p++
	case !digits():
		r.syntax("want a number")
		return nil
	}
	if p < len(d) && d[p] == '.' {
		p++
		if !digits() {
			r.syntax("want a fraction's digits")
			return nil
		}
	}
	if p < len(d) && (d[p] == 'e' || d[p] == 'E') {
		p++
		if p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		if !digits() {
			r.syntax("want an exponent's digits")
			return nil
		}
	}
	r.pos = p
	return d[start:p]
}

// int reads an integer field.
func (r *stateReader) int() int64 {
	raw := r.number()
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		r.failf("stream: corrupt state: %s is not a 64-bit integer", raw)
	}
	return v
}

// intn reads an integer field held in an int.
func (r *stateReader) intn() int {
	v := r.int()
	if int64(int(v)) != v {
		r.failf("stream: corrupt state: %d overflows int", v)
	}
	return int(v)
}

// num reads a plain number field.
func (r *stateReader) num() float64 {
	raw := r.number()
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		r.failf("stream: corrupt state: %s is out of float64 range", raw)
	}
	return v
}

// f64 reads a field that may hold "+Inf", "-Inf" or "NaN".
func (r *stateReader) f64() float64 {
	r.space()
	if r.err != nil || r.pos >= len(r.data) || r.data[r.pos] != '"' {
		return r.num()
	}
	switch s := r.rawString(); string(s) {
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	case "NaN":
		return math.NaN()
	default:
		r.failf("stream: corrupt state: %q is not a number", s)
	}
	return 0
}

func (r *stateReader) bool() bool {
	switch {
	case r.literal("true"):
		return true
	case !r.literal("false"):
		r.syntax("want true or false")
	}
	return false
}

// array reads an array, calling elem with the cursor on each element.
// It reports whether the value was null instead.
func (r *stateReader) array(elem func()) (null bool) {
	if r.literal("null") {
		return true
	}
	r.expect('[')
	if r.err != nil || r.next(']') {
		return false
	}
	for {
		elem()
		if r.err != nil || !r.next(',') {
			break
		}
	}
	r.expect(']')
	return false
}

// ints reads an integer array field: nil for null, empty for [].
func (r *stateReader) ints() []int64 {
	vs := []int64{}
	if r.array(func() { vs = append(vs, r.int()) }) {
		return nil
	}
	return vs
}

// f64s reads an array of values that may hold ±Inf or NaN: nil for
// null, empty for [].
func (r *stateReader) f64s() []float64 {
	vs := []float64{}
	if r.array(func() { vs = append(vs, r.f64()) }) {
		return nil
	}
	return vs
}
