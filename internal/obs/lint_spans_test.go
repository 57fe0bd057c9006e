package obs

import (
	"strings"
	"testing"
)

const spanTID = "0af7651916cd43dd8448eb211c80319c"

// spanLine builds one JSONL span line from raw fields.
func spanLine(parts ...string) string {
	return "{" + strings.Join(parts, ",") + "}"
}

func TestLintSpansValid(t *testing.T) {
	stream := strings.Join([]string{
		spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"aaaaaaaaaaaaaaaa"`, `"name":"solve"`,
			`"kind":"request"`, `"start_unix":100`, `"end_unix":110`, `"virtual":true`, `"vstart":0`, `"vend":2.5`),
		spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"bbbbbbbbbbbbbbbb"`, `"parent_id":"aaaaaaaaaaaaaaaa"`,
			`"name":"queue"`, `"kind":"queue"`, `"start_unix":100`, `"end_unix":101`),
		spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"cccccccccccccccc"`, `"parent_id":"aaaaaaaaaaaaaaaa"`,
			`"name":"restart 0"`, `"kind":"solver"`, `"virtual":true`, `"vstart":0`, `"vend":1.5`),
		// Parent outside the stream: a second root, legal (trace continues upstream).
		spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"dddddddddddddddd"`, `"parent_id":"ffffffffffffffff"`,
			`"name":"upstream child"`),
		"", // blank lines tolerated
	}, "\n")
	spans, err := LintSpans([]byte(stream))
	if err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if len(spans) != 4 {
		t.Fatalf("parsed %d spans, want 4", len(spans))
	}
}

func TestLintSpansRejects(t *testing.T) {
	root := spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"aaaaaaaaaaaaaaaa"`, `"name":"solve"`,
		`"start_unix":100`, `"end_unix":110`, `"virtual":true`, `"vstart":0`, `"vend":2`)
	cases := []struct {
		name   string
		stream string
		want   string
	}{
		{"empty", "\n\n", "empty span stream"},
		{"no trace id", spanLine(`"span_id":"aaaaaaaaaaaaaaaa"`, `"name":"x"`), "without trace_id"},
		{"no span id", spanLine(`"trace_id":"`+spanTID+`"`, `"name":"x"`), "without span_id"},
		{"no name", spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"aaaaaaaaaaaaaaaa"`), "without name"},
		{"mixed trace ids", root + "\n" +
			spanLine(`"trace_id":"ffffffffffffffffffffffffffffffff"`, `"span_id":"bbbbbbbbbbbbbbbb"`, `"name":"y"`),
			"has trace"},
		{"duplicate span id", root + "\n" +
			spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"aaaaaaaaaaaaaaaa"`, `"name":"dup"`),
			"duplicate span id"},
		{"wall end before start", spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"aaaaaaaaaaaaaaaa"`,
			`"name":"x"`, `"start_unix":10`, `"end_unix":5`), "wall end before start"},
		{"virtual end before start", spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"aaaaaaaaaaaaaaaa"`,
			`"name":"x"`, `"virtual":true`, `"vstart":2`, `"vend":1`), "virtual end before start"},
		{"all parents resolve", spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"aaaaaaaaaaaaaaaa"`, `"parent_id":"bbbbbbbbbbbbbbbb"`, `"name":"a"`) + "\n" +
			spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"bbbbbbbbbbbbbbbb"`, `"parent_id":"aaaaaaaaaaaaaaaa"`, `"name":"b"`),
			"no root"},
		{"cycle below a root", root + "\n" +
			spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"bbbbbbbbbbbbbbbb"`, `"parent_id":"cccccccccccccccc"`, `"name":"b"`) + "\n" +
			spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"cccccccccccccccc"`, `"parent_id":"bbbbbbbbbbbbbbbb"`, `"name":"c"`),
			"cyclic parentage"},
		{"wall child escapes parent", root + "\n" +
			spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"bbbbbbbbbbbbbbbb"`, `"parent_id":"aaaaaaaaaaaaaaaa"`,
				`"name":"late"`, `"start_unix":105`, `"end_unix":120`),
			"not nested in wall parent"},
		{"virtual child escapes parent", root + "\n" +
			spanLine(`"trace_id":"`+spanTID+`"`, `"span_id":"bbbbbbbbbbbbbbbb"`, `"parent_id":"aaaaaaaaaaaaaaaa"`,
				`"name":"long"`, `"virtual":true`, `"vstart":0`, `"vend":3`),
			"not nested in virtual parent"},
	}
	for _, c := range cases {
		if _, err := LintSpans([]byte(c.stream)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
