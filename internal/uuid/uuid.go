// Package uuid generates RFC 4122 version-4 (random) UUIDs.
//
// Both software stacks in the reproduction mint opaque identifiers:
// WS-Transfer's Create() names new resources with a GUID by default
// (paper §3.2), and WS-Addressing MessageID headers must be unique IRIs.
package uuid

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
)

// UUID is a 128-bit universally unique identifier.
type UUID [16]byte

// New returns a fresh random (version 4) UUID. It panics only if the
// operating system's entropy source is broken, which is unrecoverable.
// rand.Read, unlike a read through rand.Reader, leaves u on the stack.
func New() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		panic("uuid: entropy source failed: " + err.Error())
	}
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // RFC 4122 variant
	return u
}

// String renders the UUID in canonical 8-4-4-4-12 hexadecimal form.
func (u UUID) String() string { return u.URN()[len(urnPrefix):] }

// NewString is shorthand for New().String().
func NewString() string { return New().String() }

const urnPrefix = "urn:uuid:"

// URN renders the UUID as a urn:uuid IRI, the form used for
// WS-Addressing MessageID headers. Every message mints one, so the
// string is built in a single allocation.
func (u UUID) URN() string {
	var b [len(urnPrefix) + 36]byte
	copy(b[:], urnPrefix)
	dst := b[len(urnPrefix):]
	hex.Encode(dst[0:8], u[0:4])
	dst[8] = '-'
	hex.Encode(dst[9:13], u[4:6])
	dst[13] = '-'
	hex.Encode(dst[14:18], u[6:8])
	dst[18] = '-'
	hex.Encode(dst[19:23], u[8:10])
	dst[23] = '-'
	hex.Encode(dst[24:36], u[10:16])
	return string(b[:])
}

// Parse decodes a canonical-form UUID string (as produced by String).
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return u, fmt.Errorf("uuid: malformed %q", s)
	}
	raw := strings.ReplaceAll(s, "-", "")
	b, err := hex.DecodeString(raw)
	if err != nil || len(b) != 16 {
		return u, fmt.Errorf("uuid: malformed %q", s)
	}
	copy(u[:], b)
	return u, nil
}
