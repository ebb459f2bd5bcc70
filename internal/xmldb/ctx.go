package xmldb

import (
	"context"
	"time"

	"altstacks/internal/obs"
)

// Every database operation has a plain form and a Context form, and
// the plain form is its Context twin under context.Background(). So
// each operation, whichever form the caller picks, observes the
// storage stage histogram exactly once. Request-path callers (service
// handlers, the WSRF Home, subscription stores) pass the request's
// context, and the operation's "xmldb.<op>" span joins the request's
// trace; a context without a span opens none. With instrumentation
// off, the bookkeeping is the bool loads in obs.Start and
// obs.ChildSpan.

// storageOp is one operation in flight: when its storage-stage clock
// started (zero with instrumentation off) and its span (nil without an
// enclosing request span).
type storageOp struct {
	t0   time.Time
	span *obs.Span
}

// begin starts the storage-stage clock and opens the operation's span
// under ctx's request span.
func begin(ctx context.Context, span, collection string) storageOp {
	op := storageOp{t0: obs.Start(), span: obs.ChildSpan(ctx, span)}
	op.span.SetAttr("collection", collection)
	return op
}

// end observes the storage stage, linking its exemplar to the
// operation's span, and closes the span with the operation's error.
func (op storageOp) end(err *error) {
	obs.StageStorage.ObserveSinceSpan(op.t0, op.span)
	op.span.Fail(*err)
	op.span.End()
}
