package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"fmt"
	"io"
	"time"
)

// Host calibration. On a shared host the processor's effective speed
// moves by tens of percent over minutes, in spells longer than a run,
// and every time the benchmark measures moves with it (NOTES.md has the
// figures). So next to the stack windows the benchmark drives a fixed
// reference load and scales each window's times by the host speed it
// finds: the reference rate over calibNominal. The reference is the
// benchmark's own code and calls no package of the repository, so no
// change to the program's code can move it.
const (
	calibLen     = 250 * time.Millisecond
	calibCallers = 2
	// calibNominal is the reference rate, in operations per second over
	// both callers, of the host every time is scaled to: about the
	// median of the 2-vCPU VM the benchmark was built on, so that there
	// the reported figures read close to the raw ones.
	calibNominal = 54000.0
)

// calibDoc is the document the reference parses and hashes: a small
// SOAP envelope, like those the stacks exchange.
var calibDoc = []byte(`<?xml version="1.0"?>
<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope" xmlns:a="http://www.w3.org/2005/08/addressing">
<s:Header><a:Action>urn:altstacks:perfbench/Calibrate</a:Action><a:MessageID>urn:uuid:0f3c6c1e-8a7e-4b8e-9a55-1d9f0d7c2a11</a:MessageID><a:To>http://127.0.0.1/calibrate</a:To></s:Header>
<s:Body><Tick xmlns="urn:altstacks:perfbench"><Seq>12345</Seq><Data>abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijkl</Data></Tick></s:Body>
</s:Envelope>`)

// calibElements is how many elements calibDoc holds.
const calibElements = 9

// calibCaller runs one reference operation per step: parse calibDoc
// with encoding/xml, then hash it with SHA-256 seventeen times.
type calibCaller struct{}

func (calibCaller) step(time.Time, *samples) error {
	dec := xml.NewDecoder(bytes.NewReader(calibDoc))
	n := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("calibration parse: %w", err)
		}
		if _, ok := tok.(xml.StartElement); ok {
			n++
		}
	}
	if n != calibElements {
		return fmt.Errorf("calibration parse: %d elements, want %d", n, calibElements)
	}
	sum := sha256.Sum256(calibDoc)
	for i := 0; i < 16; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return nil
}

// hostSpeed drives the reference load for calibLen and returns the
// host's speed: the reference rate over calibNominal, below 1 on a
// host slower than nominal.
func hostSpeed() (float64, error) {
	callers := make([]caller, calibCallers)
	for i := range callers {
		callers[i] = calibCaller{}
	}
	w := drive(callers, calibLen)
	if w.failed > 0 {
		return 0, w.firstErr
	}
	return w.opsPerSec() / calibNominal, nil
}
