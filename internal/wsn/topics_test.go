package wsn

import (
	"strings"
	"testing"
	"time"
)

func TestSimpleDialect(t *testing.T) {
	te := Simple("JobStatus")
	cases := map[string]bool{
		"JobStatus":        true,
		"JobStatus/exited": false, // simple = root topic only
		"Other":            false,
	}
	for topic, want := range cases {
		got, err := te.Matches(topic)
		if err != nil {
			t.Fatalf("Matches(%q): %v", topic, err)
		}
		if got != want {
			t.Errorf("Simple(JobStatus).Matches(%q) = %v, want %v", topic, got, want)
		}
	}
}

func TestSimpleDialectRejectsPaths(t *testing.T) {
	for _, bad := range []string{"a/b", "a*", ""} {
		te := Simple(bad)
		if err := te.Validate(); err == nil {
			t.Errorf("Simple(%q) validated", bad)
		}
	}
}

func TestConcreteDialect(t *testing.T) {
	te := Concrete("jobs/status/exited")
	for topic, want := range map[string]bool{
		"jobs/status/exited":  true,
		"jobs/status":         false,
		"jobs/status/running": false,
	} {
		got, _ := te.Matches(topic)
		if got != want {
			t.Errorf("Concrete.Matches(%q) = %v, want %v", topic, got, want)
		}
	}
	if err := Concrete("jobs/*").Validate(); err == nil {
		t.Error("concrete dialect accepted a wildcard")
	}
	if err := Concrete("jobs//x").Validate(); err == nil {
		t.Error("concrete dialect accepted //")
	}
}

func TestFullDialectWildcards(t *testing.T) {
	cases := []struct {
		expr, topic string
		want        bool
	}{
		{"jobs/*/exited", "jobs/status/exited", true},
		{"jobs/*/exited", "jobs/exited", false},
		{"jobs/*", "jobs/status", true},
		{"jobs/*", "jobs/status/exited", false},
		{"*", "jobs", true},
		{"*", "jobs/status", false},
		{"jobs//.", "jobs", true},
		{"jobs//.", "jobs/status", true},
		{"jobs//.", "jobs/status/exited", true},
		{"jobs//.", "tasks/status", false},
		{"//exited", "jobs/status/exited", true},
		{"//exited", "exited", true},
		{"//exited", "jobs/exited/late", false},
		{"jobs/.", "jobs", true},
		{"jobs/.", "jobs/status", false},
		{"jobs//status/.", "jobs/a/b/status", true},
	}
	for _, c := range cases {
		got, err := Full(c.expr).Matches(c.topic)
		if err != nil {
			t.Fatalf("Full(%q).Matches(%q): %v", c.expr, c.topic, err)
		}
		if got != c.want {
			t.Errorf("Full(%q).Matches(%q) = %v, want %v", c.expr, c.topic, got, c.want)
		}
	}
}

func TestUnknownDialect(t *testing.T) {
	te := TopicExpression{Dialect: "urn:bogus", Expr: "x"}
	if _, err := te.Matches("x"); err == nil {
		t.Fatal("unknown dialect accepted")
	}
}

func TestEmptyExpression(t *testing.T) {
	te := TopicExpression{Dialect: DialectFull}
	if _, err := te.Matches("x"); err == nil {
		t.Fatal("empty expression accepted")
	}
}

// matchFullRef is the backtracking Full-dialect matcher matchFull
// replaced, kept as the reference the differential test and
// FuzzTopicMatch compare against. Every "//" retries every remaining
// topic suffix, so its cost grows exponentially with the wildcards.
func matchFullRef(pattern, topic []string) bool {
	if len(pattern) == 0 {
		return len(topic) == 0
	}
	head, rest := pattern[0], pattern[1:]
	switch head {
	case "":
		// "//": try consuming 0..len(topic) segments.
		for skip := 0; skip <= len(topic); skip++ {
			if matchFullRef(rest, topic[skip:]) {
				return true
			}
		}
		return false
	case ".":
		// "." denotes the node reached so far: it matches only when the
		// whole topic has been consumed. Subtree semantics come from a
		// preceding "//" (which absorbs the descendant segments).
		return len(rest) == 0 && len(topic) == 0
	case "*":
		if len(topic) == 0 {
			return false
		}
		return matchFullRef(rest, topic[1:])
	default:
		if len(topic) == 0 || topic[0] != head {
			return false
		}
		return matchFullRef(rest, topic[1:])
	}
}

// TestFullDialectAdversarialPatterns matches expressions that kept the
// backtracking matcher busy for seconds per Notify: a 27-byte pattern
// against a 41-segment topic (each "//*" multiplies its time about
// fivefold), and a 4 KB one, well inside the container's body limit,
// against the topic the load generators publish. Any subscriber may
// choose them.
func TestFullDialectAdversarialPatterns(t *testing.T) {
	segs := make([]string, 41)
	for i := range segs {
		segs[i] = "s"
	}
	cases := map[string]struct{ expr, topic string }{
		"star-descendants": {strings.Repeat("//*", 8) + "//x", strings.Join(segs, "/")},
		"4KB-descendants":  {strings.Repeat("//", 2000) + "x", "load/tick"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			done := make(chan bool, 1)
			go func() {
				ok, err := Full(c.expr).Matches(c.topic)
				done <- ok || err != nil
			}()
			select {
			case bad := <-done:
				if bad {
					t.Errorf("Full(%.12q...).Matches(%.12q...) matched or failed", c.expr, c.topic)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("a %d-byte pattern against a %d-segment topic did not finish in 2s",
					len(c.expr), len(splitTopic(c.topic)))
			}
		})
	}
}

// TestFullDialectMatchesReference compares matchFull with the
// reference over every pattern of up to 5 segments drawn from names,
// "*", "//" and "." against every topic of up to 5 segments. Topics
// may hold a literal "." segment, which a pattern's "." never matches.
func TestFullDialectMatchesReference(t *testing.T) {
	patterns := sequences([]string{"a", "b", "*", "", "."}, 5)
	topics := sequences([]string{"a", "b", "."}, 5)
	for _, p := range patterns {
		for _, tp := range topics {
			if got, want := matchFull(p, tp), matchFullRef(p, tp); got != want {
				t.Errorf("matchFull(%q, %q) = %v, reference says %v", p, tp, got, want)
			}
		}
	}
}

// sequences lists every sequence of at most n elements from alphabet.
func sequences(alphabet []string, n int) [][]string {
	out := [][]string{{}}
	for prev := out; n > 0; n-- {
		var grown [][]string
		for _, s := range prev {
			for _, a := range alphabet {
				grown = append(grown, append(s[:len(s):len(s)], a))
			}
		}
		out = append(out, grown...)
		prev = grown
	}
	return out
}

// FuzzTopicMatch feeds subscriber-chosen expressions and publisher
// topics through every dialect: Validate and Matches must never panic,
// and a Full-dialect match of at most 8 pattern and 8 topic segments
// must agree with the reference matcher.
func FuzzTopicMatch(f *testing.F) {
	f.Add(uint8(2), "jobs//.", "jobs/status/exited")
	f.Add(uint8(2), "jobs/*/exited", "jobs/status/exited")
	f.Add(uint8(2), "//exited", "exited")
	f.Add(uint8(2), "jobs//status/.", "jobs/a/b/status")
	f.Add(uint8(2), "/a/.//*", "a//b/")
	f.Add(uint8(2), "a/./b", "a/./b")
	f.Add(uint8(1), "jobs/status/exited", "jobs/status/exited")
	f.Add(uint8(0), "JobStatus", "JobStatus/exited")
	f.Add(uint8(3), "x", "x")
	dialects := []string{DialectSimple, DialectConcrete, DialectFull, "urn:bogus"}
	f.Fuzz(func(t *testing.T, dialect uint8, pattern, topic string) {
		te := TopicExpression{Dialect: dialects[int(dialect)%len(dialects)], Expr: pattern}
		verr := te.Validate()
		got, err := te.Matches(topic)
		if (err != nil) != (verr != nil) {
			t.Fatalf("Matches error %v, Validate error %v", err, verr)
		}
		if err != nil || te.Dialect != DialectFull {
			return
		}
		ps, ts := splitPattern(pattern), splitTopic(topic)
		if len(ps) <= 8 && len(ts) <= 8 && got != matchFullRef(ps, ts) {
			t.Fatalf("Full(%q).Matches(%q) = %v, reference says %v", pattern, topic, got, !got)
		}
	})
}
