package main

import (
	"os"
	"strings"
	"testing"
)

// TestLintTrace: the pinned exports of both writers — the ledger-only
// file and the stitched job trace — pass, and each broken promise is
// named.
func TestLintTrace(t *testing.T) {
	for _, path := range []string{
		"../../internal/gpu/testdata/chrome_trace.golden",
		"../../internal/obs/testdata/jobtrace_chrome.golden",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lintTrace(data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}

	const named = `{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"host"}}`
	for _, c := range []struct{ file, want string }{
		{`{"traceEvents":[],"displayTimeUnit":"ms"}`, "no traceEvents"},
		{`{"traceEvents":[` + named + `],"displayTimeUnit":"ns"}`, `displayTimeUnit "ns"`},
		{`{"traceEvents":[` + named + `,{"name":"b","ph":"B","pid":0,"tid":1}],"displayTimeUnit":"ms"}`, `ph "B"`},
		{`{"traceEvents":[` + named + `,{"name":"x","ph":"X","dur":-1,"pid":0,"tid":1}],"displayTimeUnit":"ms"}`, "negative dur"},
		{`{"traceEvents":[` + named + `,{"name":"x","ph":"X","dur":1,"pid":0,"tid":2}],"displayTimeUnit":"ms"}`, "pid 0 tid 2 has no thread_name"},
		{`{"traceEvents":[` + named + `,{"name":"x","ph":"X","dur":1,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`, "pid 1 tid 1 has no thread_name"},
	} {
		if _, err := lintTrace([]byte(c.file)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.file, err, c.want)
		}
	}
}
