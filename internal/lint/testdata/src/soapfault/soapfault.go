// Package soapfault exercises ogsalint/soapfault: errors on handler
// and delivery paths must reach the fault mapper or the health ledger.
// The analyzer opts this package in by its testdata/soapfault import
// path; in the real tree the check covers the container and the two
// notification stacks.
package soapfault

import (
	"bytes"
	"errors"
	"log"
	"os"
)

type ledgerDB struct{}

func (ledgerDB) Put(collection, id string, doc []byte) error { return errors.New("io") }

func (ledgerDB) Delete(collection, id string) error { return errors.New("io") }

type producer struct {
	db ledgerDB
}

func (p *producer) notify(topic string, msg []byte) (int, error) { return 0, errors.New("down") }

func (p *producer) recordFault(id string, err error) {}

// handler reaches its store and its teardown through func-typed
// fields, so no declared function stands behind either call.
type handler struct {
	store func(id string) error
	Close func() error
}

// --- flagged ---

// badBlankPut models the pre-fix storeCurrentMessage: the xmldb write
// that persists the current message vanished on failure.
func badBlankPut(p *producer, topic string, doc []byte) {
	_ = p.db.Put("current", topic, doc) // want `error from p.db.Put\("current", topic, doc\) discarded on a handler/delivery path`
}

func badBlankPair(p *producer, msg []byte) {
	_, _ = p.notify("tns:ValueChanged", msg) // want `discarded on a handler/delivery path`
}

func badBareCall(p *producer, id string) {
	p.db.Delete("health", id) // want `returns an error that is silently dropped`
}

func badFieldCall(h *handler, id string) {
	h.store(id) // want `h.store\(id\) returns an error that is silently dropped`
}

func badFuncVar(publish func() (int, error)) {
	publish() // want `publish\(\) returns an error that is silently dropped`
}

// badGoCall starts the call on its own goroutine, where its error has
// nowhere to go.
func badGoCall(p *producer, id string) {
	go p.db.Delete("health", id) // want `p.db.Delete\("health", id\) returns an error that is silently dropped`
}

// badDeferCall drops the deferred call's error on the way out.
func badDeferCall(p *producer, id string) {
	defer p.db.Delete("health", id) // want `p.db.Delete\("health", id\) returns an error that is silently dropped`
}

// badLogOnly checks the error and then drops it: logging is not
// propagation — nothing reaches the fault mapper or the ledger.
func badLogOnly(p *producer, topic string, doc []byte) {
	if err := p.db.Put("current", topic, doc); err != nil { // want `error is checked but dropped`
		log.Printf("put failed: %v", err)
	}
}

// --- clean ---

// goodReturn propagates toward the fault mapper.
func goodReturn(p *producer, topic string, doc []byte) error {
	if err := p.db.Put("current", topic, doc); err != nil {
		return err
	}
	return nil
}

// goodLedger hands the error to a recorder — the health-ledger path.
func goodLedger(p *producer, id string, msg []byte) {
	if _, err := p.notify("topic", msg); err != nil {
		p.recordFault(id, err)
	}
}

// goodClose keeps the universal teardown idiom unflagged.
func goodClose(f *os.File) {
	f.Close()
}

// goodDeferClose keeps the deferred teardown idiom unflagged.
func goodDeferClose(f *os.File) {
	defer f.Close()
}

// goodCloseField exempts teardown by the called name, so a Close
// reached through a func value stays unflagged too.
func goodCloseField(h *handler) {
	h.Close()
}

// goodBuffer keeps in-memory writers unflagged: bytes.Buffer returns
// an error only to satisfy io.Writer and documents it as always nil.
func goodBuffer(b *bytes.Buffer) {
	b.WriteString("ok")
}

// goodSuppressed is the documented valve for genuine best-effort
// calls.
func goodSuppressed(p *producer, id string) {
	//lint:ignore ogsalint/soapfault best-effort cache invalidation, failure is re-tried by the sweeper
	_ = p.db.Delete("cache", id)
}
