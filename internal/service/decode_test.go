package service

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// checkDecode holds DecodeRequest to json.Unmarshal on body: both fail,
// or both succeed with the same Request.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want Request
	wantErr := json.Unmarshal(body, &want)
	got, err := DecodeRequest(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("body %q: DecodeRequest error %v, json.Unmarshal error %v", body, err, wantErr)
	}
	if err == nil && got != want {
		t.Fatalf("body %q: DecodeRequest\n%+v\njson.Unmarshal\n%+v", body, got, want)
	}
}

// nested opens and closes depth arrays.
func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

// decodeCases pin DecodeRequest on the edges of json.Unmarshal's
// contract. Each also seeds FuzzDecodeRequest.
var decodeCases = []struct {
	name string
	body string
	want Request
	fail bool
}{
	{name: "kernel shape", body: `{"ir":"func f()\n  ret\n","scheme":"select","regn":12,"alloc":"irc"}`,
		want: Request{IR: "func f()\n  ret\n", Scheme: "select", RegN: 12, Alloc: "irc"}},
	{name: "every field", body: `{"ir":"x","scheme":"s","regn":1,"diffn":2,"restarts":3,"alloc":"a","timeout_ms":4,"listing":true,"explain":true}`,
		want: Request{IR: "x", Scheme: "s", RegN: 1, DiffN: 2, Restarts: 3, Alloc: "a", TimeoutMs: 4, Listing: true, Explain: true}},
	{name: "whitespace everywhere", body: " \t\r\n{ \"regn\" :\n5 , \"explain\"\t: false }\r\n", want: Request{RegN: 5}},
	{name: "empty object", body: `{}`},

	// Keys fold as encoding/json folds them.
	{name: "upper-case key", body: `{"REGN":12}`, want: Request{RegN: 12}},
	{name: "long s folds to s", body: "{\"li\u017fting\":true,\"\u017fcheme\":\"select\"}", want: Request{Listing: true, Scheme: "select"}},
	{name: "dotless i does not fold to I", body: "{\"l\u0131sting\":true}"},
	{name: "dotted I does not fold to I", body: "{\"l\u0130sting\":true}"},
	{name: "Kelvin sign folds to K", body: "{\"\u212a\":1,\"\u212aregn\":{\"regn\":9},\"regn\":2}", want: Request{RegN: 2}},
	{name: "escaped key", body: `{"\u0069r":"x","\u017fcheme":"s","\u212aind":1}`, want: Request{IR: "x", Scheme: "s"}},

	// Duplicates and null.
	{name: "last duplicate wins", body: `{"ir":"a","ir":"b"}`, want: Request{IR: "b"}},
	{name: "folded duplicate wins", body: `{"regn":1,"REGN":2}`, want: Request{RegN: 2}},
	{name: "null keeps the earlier value", body: `{"ir":"a","ir":null,"regn":3,"regn":null,"listing":true,"listing":null}`,
		want: Request{IR: "a", RegN: 3, Listing: true}},
	{name: "null fields", body: `{"ir":null,"regn":null,"listing":null}`},

	// Unknown keys skip through any value, up to the nesting limit.
	{name: "unknown nested values", body: `{"x":{"a":[1,-2.5e+3,0.5E-1,true,false,null,"s\n\u00e9",{}],"b":{}},"ir":"y","z":[]}`,
		want: Request{IR: "y"}},
	{name: "nesting at the limit", body: `{"x":` + nested(maxDepth-1) + `}`},
	{name: "nesting over the limit", body: `{"x":` + nested(maxDepth) + `}`, fail: true},
	{name: "unknown value malformed", body: `{"x":[1,]}`, fail: true},
	{name: "unknown key without value", body: `{"x"}`, fail: true},

	// Integers as Unmarshal takes them.
	{name: "fraction", body: `{"regn":12.0}`, fail: true},
	{name: "exponent", body: `{"regn":1e2}`, fail: true},
	{name: "leading zero", body: `{"regn":012}`, fail: true},
	{name: "negative zero", body: `{"regn":-0}`},
	{name: "min int", body: `{"regn":` + strconv.Itoa(math.MinInt) + `}`, want: Request{RegN: math.MinInt}},
	{name: "overflow", body: `{"regn":` + strconv.FormatUint(uint64(math.MaxInt)+1, 10) + `}`, fail: true},
	{name: "bare minus", body: `{"regn":-}`, fail: true},

	// Values of the wrong type.
	{name: "string into int", body: `{"regn":"12"}`, fail: true},
	{name: "number into string", body: `{"ir":1}`, fail: true},
	{name: "string into bool", body: `{"listing":"true"}`, fail: true},
	{name: "object into string", body: `{"ir":{}}`, fail: true},
	{name: "bad literal", body: `{"listing":tru}`, fail: true},

	// Strings.
	{name: "escapes", body: `{"ir":"\"\\\/\b\f\n\r\t\u0041\u00e9"}`, want: Request{IR: "\"\\/\b\f\n\r\tA\u00e9"}},
	{name: "lone high surrogate", body: `{"ir":"a\ud800b"}`, want: Request{IR: "a\uFFFDb"}},
	{name: "lone low surrogate", body: `{"ir":"\udc00"}`, want: Request{IR: "\uFFFD"}},
	{name: "surrogate pair", body: `{"ir":"\ud83d\ude00"}`, want: Request{IR: "\U0001F600"}},
	{name: "high surrogate before an escape", body: `{"ir":"\ud800\u0041"}`, want: Request{IR: "\uFFFDA"}},
	{name: "two high surrogates", body: `{"ir":"\uD800\ud800\udc00"}`, want: Request{IR: "\uFFFD\U00010000"}},
	{name: "invalid UTF-8", body: "{\"ir\":\"a\xffb\xe2\x82\"}", want: Request{IR: "a\uFFFDb\uFFFD\uFFFD"}},
	{name: "encoded surrogate", body: "{\"scheme\":\"\xed\xa0\x80\"}", want: Request{Scheme: "\uFFFD\uFFFD\uFFFD"}},
	{name: "valid UTF-8", body: "{\"scheme\":\"s\u00e9l\u00e9ct\"}", want: Request{Scheme: "s\u00e9l\u00e9ct"}},
	{name: "control character", body: "{\"ir\":\"a\nb\"}", fail: true},
	{name: "unknown escape", body: `{"ir":"\x"}`, fail: true},
	{name: "short unicode escape", body: `{"ir":"\u12"}`, fail: true},
	{name: "surrogate before a malformed escape", body: `{"ir":"\ud800\u12"}`, fail: true},
	{name: "unterminated string", body: `{"ir":"abc`, fail: true},

	// The body as a whole.
	{name: "top-level null", body: "null"},
	{name: "top-level null with space", body: " null\n"},
	{name: "top-level array", body: `[]`, fail: true},
	{name: "top-level string", body: `"ir"`, fail: true},
	{name: "top-level number", body: `12`, fail: true},
	{name: "empty body", body: ``, fail: true},
	{name: "two objects", body: `{"ir":"a"}{"ir":"b"}`, fail: true},
	{name: "trailing garbage", body: `{"ir":"a"}x`, fail: true},
	{name: "trailing newline", body: "{\"ir\":\"a\"}\n", want: Request{IR: "a"}},
	{name: "trailing comma", body: `{"ir":"a",}`, fail: true},
	{name: "missing colon", body: `{"ir" "a"}`, fail: true},
	{name: "truncated", body: `{"ir":"a"`, fail: true},
}

func TestDecodeRequestMatchesUnmarshal(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := DecodeRequest([]byte(c.body))
			if (err != nil) != c.fail {
				t.Fatalf("error %v, want failure %t", err, c.fail)
			}
			if err == nil && got != c.want {
				t.Fatalf("got %+v, want %+v", got, c.want)
			}
			checkDecode(t, []byte(c.body))
		})
	}
}

// TestDecodeRequestKnowsEveryField: a field added to Request must be
// added to DecodeRequest too, or this fails.
func TestDecodeRequestKnowsEveryField(t *testing.T) {
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		var val string
		switch f.Type.Kind() {
		case reflect.String:
			val = `"v"`
		case reflect.Int:
			val = "7"
		case reflect.Bool:
			val = "true"
		default:
			t.Fatalf("field %s: DecodeRequest decodes no %s", f.Name, f.Type)
		}
		body := []byte(`{"` + name + `":` + val + `}`)
		checkDecode(t, body)
		if got, _ := DecodeRequest(body); reflect.ValueOf(got).Field(i).IsZero() {
			t.Errorf("field %s: %s left it unset", f.Name, body)
		}
	}
}

// TestDecodedStringsDoNotPinBody: a Request outlives the buffer its
// body was read into, so its strings must be copies, escaped or not.
func TestDecodedStringsDoNotPinBody(t *testing.T) {
	body := []byte(`{"ir":"func f()","scheme":"select","alloc":"irc"}`)
	req, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&body[0]))
	for _, s := range []string{req.IR, req.Scheme, req.Alloc} {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		if p >= lo && p < lo+uintptr(len(body)) {
			t.Errorf("%q points into the body", s)
		}
	}
	// An escaped string is unescaped into a pooled buffer that the next
	// decode reuses.
	first, err := DecodeRequest([]byte(`{"ir":"a\nb"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest([]byte(`{"ir":"x\ny"}`)); err != nil {
		t.Fatal(err)
	}
	if first.IR != "a\nb" {
		t.Errorf("escaped IR changed to %q by the next decode", first.IR)
	}
}

// FuzzDecodeRequest: for any bytes, DecodeRequest fails exactly when
// json.Unmarshal into a Request fails, and otherwise returns the same
// Request. The committed corpus holds the kernel bodies perfbench
// sends; decodeCases add the edges.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}
