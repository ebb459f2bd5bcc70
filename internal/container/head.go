package container

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// fields is the one reader of HTTP/1.1 field lines, for the heads both
// directions read (the server's request heads, the transport's reply
// heads) and for the trailer after a chunked body. It reads the field
// lines up to the blank line that ends them, judges each line as
// net/http did, obs-fold continuations included, and records what the
// fields either side acts on say. Each side acts only on its own: the
// server ignores Content-Encoding and Trailer, the transport Host.
//
// A connection keeps one fields across its heads, so the buffers it
// holds values in are reused.
type fields struct {
	lengths, encodings, hosts int  // Content-Length, Transfer-Encoding and Host fields
	badLength, chunked        bool // the lengths differ; the first encoding is chunked
	close, keepAlive          bool // Connection tokens
	coded, gzip               bool // a Content-Encoding was read; the first is gzip
	badTrailer                bool // a Trailer field names a framing field
	// val holds the value of the field being read, when it is one of
	// the above, until the next line shows whether the value continues
	// (obs-fold); cl holds the first Content-Length.
	val, cl []byte
}

// Head fields the server or the transport acts on.
const (
	fieldOther = iota
	fieldContentLength
	fieldTransferEncoding
	fieldConnection
	fieldHost
	fieldContentEncoding
	fieldTrailer
)

// errMalformedLine is what read fails with, wrapped with the line, on a
// field line the grammar refuses.
var errMalformedLine = errors.New("malformed MIME header line")

// read reads field lines from br through the blank line that ends
// them, charging each to the allowance *left (a line that overdraws it
// fails with tooLarge), and records what they say. validName is the
// rule for field names, the one thing the callers differ on: a request
// head takes tokens (validFieldName), a reply head or a trailer also
// spaces (validReplyFieldName). A line the grammar refuses fails with
// an error that wraps errMalformedLine.
func (f *fields) read(br *bufio.Reader, left *int, tooLarge error, validName func([]byte) bool) error {
	*f = fields{val: f.val[:0], cl: f.cl[:0]}
	field := fieldOther
	for first := true; ; first = false {
		line, err := readLine(br, left, tooLarge)
		if err != nil {
			return err
		}
		if len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			// A continuation line (obs-fold) extends the previous field.
			v := trimOWS(line)
			if first || !validFieldValue(v) {
				return fmt.Errorf("%w: %q", errMalformedLine, line)
			}
			if field != fieldOther {
				f.val = append(append(f.val, ' '), v...)
			}
			continue
		}
		f.apply(field)
		if len(line) == 0 {
			return nil
		}
		name, value, ok := bytes.Cut(line, []byte{':'})
		if !ok || !validName(name) || !validFieldValue(value) {
			return fmt.Errorf("%w: %q", errMalformedLine, line)
		}
		if field = fieldOf(name); field != fieldOther {
			f.val = append(f.val[:0], trimOWS(value)...)
		}
	}
}

// apply records what the field just read, whose value is f.val, says.
func (f *fields) apply(field int) {
	switch field {
	case fieldContentLength:
		v := trimOWS(f.val)
		if f.lengths == 0 {
			f.cl = append(f.cl[:0], v...)
		} else if !bytes.Equal(v, f.cl) {
			f.badLength = true // differing lengths: a smuggling attempt
		}
		f.lengths++
	case fieldTransferEncoding:
		if f.encodings == 0 {
			f.chunked = fieldIs(f.val, "chunked")
		}
		f.encodings++
	case fieldConnection:
		f.close = f.close || hasToken(f.val, "close")
		f.keepAlive = f.keepAlive || hasToken(f.val, "keep-alive")
	case fieldHost:
		f.hosts++
	case fieldContentEncoding:
		if !f.coded {
			f.coded, f.gzip = true, fieldIs(f.val, "gzip")
		}
	case fieldTrailer:
		f.badTrailer = f.badTrailer || hasToken(f.val, "transfer-encoding") || hasToken(f.val, "trailer") ||
			hasToken(f.val, "content-length")
	}
}

// length parses the first Content-Length: -1 when the head has none,
// and false when its value is not a decimal length.
func (f *fields) length() (int64, bool) {
	if f.lengths == 0 {
		return -1, true
	}
	n, err := strconv.ParseUint(string(f.cl), 10, 63)
	return int64(n), err == nil
}

// fieldOf names the head field the server or the transport acts on, or
// fieldOther.
func fieldOf(name []byte) int {
	switch {
	case fieldIs(name, "content-length"):
		return fieldContentLength
	case fieldIs(name, "transfer-encoding"):
		return fieldTransferEncoding
	case fieldIs(name, "connection"):
		return fieldConnection
	case fieldIs(name, "host"):
		return fieldHost
	case fieldIs(name, "content-encoding"):
		return fieldContentEncoding
	case fieldIs(name, "trailer"):
		return fieldTrailer
	}
	return fieldOther
}

// fieldIs reports whether name is the lower-case key, ignoring ASCII
// case.
func fieldIs(name []byte, key string) bool {
	if len(name) != len(key) {
		return false
	}
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != key[i] {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v holds the
// lower-case token, ignoring ASCII case only, as net/http matched it.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var t []byte
		t, v, _ = bytes.Cut(v, []byte{','})
		if fieldIs(trimOWS(t), token) {
			return true
		}
	}
	return false
}

// trimOWS trims the spaces and tabs around a field value.
func trimOWS(v []byte) []byte { return bytes.Trim(v, " \t") }

// readLine returns the next head line from br without its line ending,
// charging it to the head's allowance, *left: a line that overdraws it
// fails with tooLarge. The line aliases br's buffer, unless it is longer
// than the buffer, and is valid until the next read.
func readLine(br *bufio.Reader, left *int, tooLarge error) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= *left {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if *left -= len(line); *left < 0 {
		return nil, tooLarge
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseVersion parses "HTTP/x.y" for single digits x and y.
func parseVersion(p []byte) (major, minor int, ok bool) {
	if len(p) != len("HTTP/x.y") || string(p[:5]) != "HTTP/" || p[6] != '.' || !isDigit(p[5]) || !isDigit(p[7]) {
		return 0, 0, false
	}
	return int(p[5] - '0'), int(p[7] - '0'), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// validFieldName reports whether k is an HTTP token.
func validFieldName[S string | []byte](k S) bool {
	if len(k) == 0 {
		return false
	}
	for i := 0; i < len(k); i++ {
		if !tokenByte(k[i]) {
			return false
		}
	}
	return true
}

// validReplyFieldName reports whether name is a field name
// http.ReadResponse reads: a token, in which it tolerates spaces (and
// then matches no field it acts on).
func validReplyFieldName(name []byte) bool {
	for _, c := range name {
		if c != ' ' && !tokenByte(c) {
			return false
		}
	}
	return len(name) > 0
}

func tokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// validFieldValue reports whether v holds no control byte but a tab.
func validFieldValue[S string | []byte](v S) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
