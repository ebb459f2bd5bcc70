package container

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"altstacks/internal/wsa"
)

// The HTTP heads of one unsigned exchange, stored under testdata/ with
// the listener's port and the Date header masked. They pin what the
// SOAP golden files cannot: header order and spelling, the transport's
// User-Agent and Accept-Encoding, and Content-Length.
var (
	datePattern = regexp.MustCompile(`(?m)^Date: [^\r]*\r$`)
	headEnd     = []byte("\r\n\r\n")
)

// readHead reads one HTTP head from br, through the blank line.
func readHead(br *bufio.Reader) ([]byte, error) {
	var head []byte
	for !bytes.HasSuffix(head, headEnd) {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("read head: %w (so far %q)", err, head)
		}
		head = append(head, line...)
	}
	return head, nil
}

// contentLength returns the Content-Length a head declares, or -1.
func contentLength(head []byte) int {
	m := regexp.MustCompile(`(?m)^Content-Length: (\d+)\r$`).FindSubmatch(head)
	if m == nil {
		return -1
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

func checkHead(t *testing.T, name string, head []byte) {
	t.Helper()
	head = datePattern.ReplaceAll(head, []byte("Date: <masked>\r"))
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, want) {
		t.Fatalf("%s changed\n got: %q\nwant: %q", name, head, want)
	}
}

// echoRequest is a fixed unsigned request envelope for action, whose
// body says said.
func echoRequest(action, said string) string {
	return `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/" xmlns:wsa="` + wsa.NS + `">` +
		`<soap:Header><wsa:Action>` + action + `</wsa:Action>` +
		`<wsa:MessageID>urn:uuid:00000000-0000-4000-8000-000000000001</wsa:MessageID></soap:Header>` +
		`<soap:Body><e:Echo xmlns:e="urn:echo">` + said + `</e:Echo></soap:Body></soap:Envelope>`
}

// rawPostText is a POST of req to path with the given extra head lines.
func rawPostText(path, extra, req string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: golden\r\n" + extra + "Content-Type: text/xml; charset=utf-8\r\n" +
		"Content-Length: " + strconv.Itoa(len(req)) + "\r\n\r\n" + req
}

// TestGoldenPlainReplies pins the replies TestGoldenResponseHeads does
// not reach, over a raw connection: a 404 for an unknown path and a 405
// for a GET, head and body, and the head of the reply to a request that
// asks to close, after which the server closes the connection.
func TestGoldenPlainReplies(t *testing.T) {
	c, _ := startPlain(t)
	req := echoRequest("urn:echo/Echo", "hello")
	post := func(path, extra string) string { return rawPostText(path, extra, req) }
	for _, tc := range []struct {
		golden, request string
		closes          bool
	}{
		{"notfound-reply.txt", post("/missing", ""), false},
		{"get-reply.txt", "GET /echo HTTP/1.1\r\nHost: golden\r\n\r\n", false},
		{"close-response-head.txt", post("/echo", "Connection: close\r\n"), true},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(c.BaseURL(), "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			io.WriteString(conn, tc.request)
			br := bufio.NewReader(conn)
			head, err := readHead(br)
			if err != nil {
				t.Fatal(err)
			}
			body := make([]byte, contentLength(head))
			if _, err := io.ReadFull(br, body); err != nil {
				t.Fatal(err)
			}
			if !tc.closes {
				checkHead(t, tc.golden, append(head, body...))
				return
			}
			checkHead(t, tc.golden, head)
			if n, err := br.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("after a Connection: close reply: read %d, %v; want EOF", n, err)
			}
		})
	}
}

// TestGoldenResponseHeads posts a fixed request over a raw connection
// and captures the heads writeResponse writes for a reply and a fault.
func TestGoldenResponseHeads(t *testing.T) {
	c, _ := startPlain(t)
	for _, tc := range []struct{ golden, action string }{
		{"response-head.txt", "urn:echo/Echo"},
		{"fault-response-head.txt", "urn:echo/Fail"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			req := `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/" xmlns:wsa="` + wsa.NS + `">` +
				`<soap:Header><wsa:Action>` + tc.action + `</wsa:Action>` +
				`<wsa:MessageID>urn:uuid:00000000-0000-4000-8000-000000000001</wsa:MessageID></soap:Header>` +
				`<soap:Body><e:Echo xmlns:e="urn:echo">hello</e:Echo></soap:Body></soap:Envelope>`
			conn, err := net.Dial("tcp", strings.TrimPrefix(c.BaseURL(), "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			io.WriteString(conn, "POST /echo HTTP/1.1\r\nHost: golden\r\nContent-Type: text/xml; charset=utf-8\r\n"+
				"Content-Length: "+strconv.Itoa(len(req))+"\r\n\r\n"+req)
			br := bufio.NewReader(conn)
			head, err := readHead(br)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(io.MultiReader(bytes.NewReader(head), br)), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if body, err := io.ReadAll(resp.Body); err != nil || len(body) != contentLength(head) {
				t.Fatalf("body: %d bytes, %v", len(body), err)
			}
			checkHead(t, tc.golden, head)
		})
	}
}
