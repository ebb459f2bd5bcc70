package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestMS(t *testing.T) {
	if got := MS(1500 * time.Microsecond); got != "1.5" {
		t.Fatalf("MS = %q", got)
	}
	if got := MS(0); got != "0.0" {
		t.Fatalf("MS(0) = %q", got)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "Figure 2: Testing Hello World with no security",
		Caption: "elapsed ms per request",
		Columns: []string{"co-wst", "co-wsrf"},
	}
	tab.AddRow("Get", []string{"1.2", "0.9"}, "")
	tab.AddRow("Notify", []string{"2.0", "3.1"}, "TCP vs HTTP")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 2", "operation", "co-wsrf", "Get", "Notify", "# TCP vs HTTP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRenderChecks(t *testing.T) {
	var buf bytes.Buffer
	RenderChecks(&buf, []Check{
		{Name: "create slowest", OK: true, Got: "create=6ms read=1ms"},
		{Name: "wsrf set faster", OK: false, Got: "equal"},
	})
	out := buf.String()
	if !strings.Contains(out, "[PASS] create slowest") || !strings.Contains(out, "[FAIL] wsrf set faster") {
		t.Fatalf("output:\n%s", out)
	}
}
