package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeRequest decodes a request body in one pass over its bytes. Its
// contract is json.Unmarshal's into a Request: it accepts exactly the
// bodies Unmarshal accepts and returns the Request Unmarshal fills.
//
//   - A key names a field by its exact JSON name, else when the two
//     agree under encoding/json's folding (ASCII upper case, every
//     other rune the smallest of its Unicode simple-folding orbit), so
//     "REGN" and "liſting" hit.
//   - The last of duplicate keys wins, and null leaves a field as it is.
//   - Unknown keys are skipped through any valid value, at most
//     maxDepth objects and arrays deep counting the request itself.
//   - An integer field takes only an integer literal that fits an int:
//     no fraction, exponent or leading zero.
//   - Strings unescape as encoding/json unescapes them: invalid UTF-8
//     and lone surrogates become U+FFFD.
//   - Anything but whitespace after the value is an error.
//
// Every string in the result is a fresh copy, so a retained Request
// never pins body. encoding/json stays the reference that
// FuzzDecodeRequest holds this to, which is why Request has no
// UnmarshalJSON: that would route the reference through this code.
func DecodeRequest(body []byte) (Request, error) {
	d := decoder{data: body}
	req, err := d.request()
	if d.scratch != nil {
		putBuf(d.scratch)
	}
	return req, err
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// requestFields lists Request's JSON names in field order, and
// foldedFields the same names under foldName.
var (
	requestFields = [...]string{"ir", "scheme", "regn", "diffn", "restarts", "alloc", "timeout_ms", "listing", "explain"}
	foldedFields  [len(requestFields)]string
)

// plain marks the bytes a string literal copies as they are: printable
// ASCII other than the quote and the backslash.
var plain [256]bool

// unescapes maps the byte after a backslash to the byte it stands for;
// 'u' and invalid escapes map to 0.
var unescapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

func init() {
	for c := ' '; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	for i, name := range requestFields {
		foldedFields[i] = string(foldName(nil, []byte(name)))
	}
}

// decoder reads one body; off is the next unread byte. scratch holds
// the strings that need unescaping, taken from bufs at the first one.
type decoder struct {
	data    []byte
	off     int
	scratch *[]byte
}

// request decodes the whole body: one object or null, then only
// whitespace.
func (d *decoder) request() (Request, error) {
	var req Request
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.object(&req)
	case 'n':
		err = d.literal("null")
	default:
		// Valid JSON of another type fails as Unmarshal's type error.
		if err = d.skip(0); err == nil {
			err = errors.New("request body is not a JSON object")
		}
	}
	if err != nil {
		return Request{}, err
	}
	d.space()
	if d.off < len(d.data) {
		return Request{}, d.syntaxError("after top-level value")
	}
	return req, nil
}

// object decodes the request object at d.off into req.
func (d *decoder) object(req *Request) error {
	d.off++
	d.space()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		name := fieldName(key)
		d.space()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.off++
		d.space()
		switch name {
		case "ir":
			err = d.stringField(&req.IR, name)
		case "scheme":
			err = d.stringField(&req.Scheme, name)
		case "regn":
			err = d.intField(&req.RegN, name)
		case "diffn":
			err = d.intField(&req.DiffN, name)
		case "restarts":
			err = d.intField(&req.Restarts, name)
		case "alloc":
			err = d.stringField(&req.Alloc, name)
		case "timeout_ms":
			err = d.intField(&req.TimeoutMs, name)
		case "listing":
			err = d.boolField(&req.Listing, name)
		case "explain":
			err = d.boolField(&req.Explain, name)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
			d.space()
		case '}':
			d.off++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// fieldName returns the JSON name of the Request field key names, or
// "" when it names none: the exact name first, then the name whose
// folding equals the key's.
func fieldName(key []byte) string {
	for _, name := range requestFields {
		if string(key) == name {
			return name
		}
	}
	var arr [32]byte
	folded := foldName(arr[:0], key)
	for i, name := range foldedFields {
		if string(folded) == name {
			return requestFields[i]
		}
	}
	return ""
}

// foldName appends the folding of key to out as encoding/json folds a
// key: ASCII letters upper-cased, every other rune replaced by the
// smallest rune of its simple-folding orbit.
func foldName(out, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		out = utf8.AppendRune(out, smallestFold(r))
		i += n
	}
	return out
}

// smallestFold returns the smallest rune of r's simple-folding orbit.
func smallestFold(r rune) rune {
	for {
		f := unicode.SimpleFold(r)
		if f <= r {
			return f
		}
		r = f
	}
}

// stringField decodes a string or null into a string field.
func (d *decoder) stringField(dst *string, name string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.typeError(name, "a string")
}

// intField decodes an integer literal or null into an int field.
func (d *decoder) intField(dst *int, name string) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	if c := d.peek(); c != '-' && !isDigit(c) {
		return d.typeError(name, "an integer")
	}
	start := d.off
	lit, integer, err := d.number()
	if err != nil {
		return err
	}
	if integer {
		if n, ok := parseInt(lit); ok {
			*dst = n
			return nil
		}
	}
	d.off = start
	return d.typeError(name, "an integer")
}

// boolField decodes true, false or null into a bool field.
func (d *decoder) boolField(dst *bool, name string) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.typeError(name, "a boolean")
}

// skip consumes the value at d.off, which sits inside depth objects
// and arrays, checking its syntax.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			return d.syntaxError("exceeding the maximum nesting depth")
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		d.off++
		d.space()
		if d.peek() == end {
			d.off++
			return nil
		}
		for {
			if c == '{' {
				if d.peek() != '"' {
					return d.syntaxError("looking for beginning of object key string")
				}
				if _, err := d.str(); err != nil {
					return err
				}
				d.space()
				if d.peek() != ':' {
					return d.syntaxError("after object key")
				}
				d.off++
				d.space()
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			d.space()
			switch d.peek() {
			case ',':
				d.off++
				d.space()
			case end:
				d.off++
				return nil
			default:
				return d.syntaxError("after a value in an object or array")
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, _, err := d.number()
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// str consumes the string literal at d.off and returns its decoded
// bytes: a view into the body when the literal has no escape and no
// invalid UTF-8, else d's scratch buffer. Either is valid only until
// the next call.
func (d *decoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i := start
	// data[run:i] decodes to itself and is not yet in buf, which is
	// taken at the first escape or invalid byte.
	run, escaped := start, false
	var buf []byte
	for {
		for i < len(data) && plain[data[i]] {
			i++
		}
		if i >= len(data) {
			d.off = i
			return nil, d.syntaxError("in string literal")
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			if !escaped {
				return data[start:i], nil
			}
			buf = append(buf, data[run:i]...)
			*d.scratch = buf
			return buf, nil
		case c == '\\':
			if !escaped {
				buf, escaped = d.scratchBuf(), true
			}
			buf = append(buf, data[run:i]...)
			e := byte(0)
			if i+1 < len(data) {
				e = data[i+1]
			}
			if u := unescapes[e]; u != 0 {
				buf = append(buf, u)
				i += 2
			} else if e == 'u' {
				r := hex4(data, i+2)
				if r < 0 {
					d.off = i + 2
					for d.off < len(data) && isHex(data[d.off]) {
						d.off++
					}
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A surrogate decodes only as the first half of
					// an escaped pair; anything else is U+FFFD. A
					// malformed second escape fails on the next turn.
					next := rune(-1)
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						next = hex4(data, i+2)
					}
					if r = utf16.DecodeRune(r, next); r != unicode.ReplacementChar {
						i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
			} else {
				d.off = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			run = i
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				if !escaped {
					buf, escaped = d.scratchBuf(), true
				}
				buf = utf8.AppendRune(append(buf, data[run:i]...), utf8.RuneError)
				run = i + 1
			}
			i += size
		}
	}
}

// scratchBuf returns d's scratch buffer emptied, taking one from bufs
// at the first call.
func (d *decoder) scratchBuf() []byte {
	if d.scratch == nil {
		d.scratch = getBuf()
	}
	return (*d.scratch)[:0]
}

// hex4 returns the rune the four hex digits at data[i:] spell, or -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes the number at d.off and reports whether it is an
// integer literal, with no fraction and no exponent.
func (d *decoder) number() (lit []byte, integer bool, err error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case isDigit(c):
		d.digits()
	default:
		return nil, false, d.syntaxError("in numeric literal")
	}
	integer = true
	if d.peek() == '.' {
		integer = false
		d.off++
		if !isDigit(d.peek()) {
			return nil, false, d.syntaxError("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		integer = false
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			return nil, false, d.syntaxError("in exponent of numeric literal")
		}
		d.digits()
	}
	return d.data[start:d.off], integer, nil
}

func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.off++
	}
}

// parseInt converts an integer literal, reporting false when it does
// not fit an int.
func parseInt(lit []byte) (int, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range lit {
		digit := uint64(c - '0')
		if n > (limit-digit)/10 {
			return 0, false
		}
		n = n*10 + digit
	}
	if neg {
		return int(-n), true
	}
	return int(n), true
}

// literal consumes lit (true, false or null) at d.off.
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the body; no value
// starts with 0, so every caller fails there.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) syntaxError(where string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], where, d.off)
}

func (d *decoder) typeError(name, want string) error {
	if d.off >= len(d.data) {
		return d.syntaxError("")
	}
	return fmt.Errorf("field %q takes %s at offset %d", name, want, d.off)
}

// bufs recycles the buffers a request body is read and unescaped
// into; maxPooledBuf caps what goes back, so one huge body is not kept
// for good.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufs.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufs.Put(b)
	}
}
