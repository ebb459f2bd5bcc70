package xmldb

import (
	"context"
	"testing"

	"altstacks/internal/obs"
)

// TestEachOperationObservesStorageOnce: the storage stage counts one
// observation per operation whichever form the caller uses, and the
// Context form's observation links its exemplar to the operation's
// span in the request trace. No t.Parallel: the registry is
// process-wide.
func TestEachOperationObservesStorageOnce(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	db := NewMemory(CostModel{})
	if err := db.Create("c", "1", counterDoc(1)); err != nil {
		t.Fatal(err)
	}
	observations := func(label string, op func() error) {
		t.Helper()
		before := obs.StageStorage.Count()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n := obs.StageStorage.Count() - before; n != 1 {
			t.Fatalf("%s added %d storage observations, want 1", label, n)
		}
	}
	traces := len(obs.Traces())
	observations("Get", func() error {
		_, err := db.Get("c", "1")
		return err
	})
	if n := len(obs.Traces()); n != traces {
		t.Fatalf("plain Get recorded a trace (%d → %d); without a request span it must open none", traces, n)
	}

	ctx, root := obs.StartSpan(context.Background(), "test.request")
	observations("GetContext", func() error {
		_, err := db.GetContext(ctx, "c", "1")
		return err
	})
	root.End()
	var linked bool
	for _, e := range obs.StageStorage.Snapshot().Exemplars {
		linked = linked || (e != nil && e.TraceID == root.TraceID())
	}
	if !linked {
		t.Fatal("GetContext's storage observation carries no exemplar of its request trace")
	}
	for _, tr := range obs.Traces() {
		if tr.ID == root.TraceID() {
			if s := tr.Span("xmldb.get"); s == nil || s.Parent != tr.Root().ID {
				t.Fatalf("xmldb.get span not parented under the request: %+v", tr.Spans)
			}
			return
		}
	}
	t.Fatal("request trace not recorded")
}
