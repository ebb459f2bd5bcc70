// Package wsn implements the three WS-Notification specifications the
// paper evaluates against WS-Eventing (§2.1): WS-BaseNotification
// (Subscribe / Notify, subscription-manager resources with pause and
// resume), WS-Topics (simple, concrete, and full topic-expression
// dialects), and WS-BrokeredNotification (brokers, publisher
// registration, and demand-based publishing).
//
// The paper's §3.1 verdict — "WS-Notification, arguably, is very
// complex … a demand based publisher registration interaction can
// involve as many as six separate Web services" — is reproduced
// structurally: the broker really does maintain back-subscriptions to
// demand publishers and pause/unpause them as its own subscriber set
// changes, and the message-amplification claim is asserted by test.
package wsn

import (
	"fmt"
	"strings"
)

// OASIS WS-Notification namespaces.
const (
	NSNT = "http://docs.oasis-open.org/wsn/b-2"
	NSBR = "http://docs.oasis-open.org/wsn/br-2"
	NST  = "http://docs.oasis-open.org/wsn/t-1"
)

// Topic-expression dialects from WS-Topics (paper §2.1: "topic names
// can be specified with simple strings, hierarchical topic trees, or
// wildcard expressions").
const (
	// DialectSimple names exactly one root topic ("JobStatus").
	DialectSimple = NST + "/TopicExpression/Simple"
	// DialectConcrete names one node in a topic tree ("jobs/status/exited").
	DialectConcrete = NST + "/TopicExpression/Concrete"
	// DialectFull adds wildcards: "*" matches one path segment,
	// "//" matches zero or more segments, and a trailing "//." selects
	// a node and its whole subtree.
	DialectFull = NST + "/TopicExpression/Full"
)

// TopicExpression is a dialect-tagged topic pattern.
type TopicExpression struct {
	Dialect string
	Expr    string
}

// Simple builds a simple-dialect expression.
func Simple(topic string) TopicExpression {
	return TopicExpression{Dialect: DialectSimple, Expr: topic}
}

// Concrete builds a concrete-dialect expression.
func Concrete(path string) TopicExpression {
	return TopicExpression{Dialect: DialectConcrete, Expr: path}
}

// Full builds a full-dialect expression.
func Full(pattern string) TopicExpression {
	return TopicExpression{Dialect: DialectFull, Expr: pattern}
}

// Matches reports whether a published topic path satisfies the
// expression. Topic paths are "/"-separated hierarchical names.
func (t TopicExpression) Matches(topic string) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	switch t.Dialect {
	case DialectSimple:
		// Simple expressions address a root topic only: they match the
		// root itself, never descendants.
		return topic == t.Expr, nil
	case DialectConcrete:
		return topic == t.Expr, nil
	case DialectFull:
		return matchFull(splitPattern(t.Expr), splitTopic(topic)), nil
	}
	return false, fmt.Errorf("wsn: unknown topic dialect %q", t.Dialect)
}

// Validate checks dialect and expression well-formedness.
func (t TopicExpression) Validate() error {
	if t.Expr == "" {
		return fmt.Errorf("wsn: empty topic expression")
	}
	switch t.Dialect {
	case DialectSimple:
		if strings.ContainsAny(t.Expr, "/*") {
			return fmt.Errorf("wsn: simple dialect expression %q must be a root topic name", t.Expr)
		}
	case DialectConcrete:
		if strings.Contains(t.Expr, "*") || strings.Contains(t.Expr, "//") {
			return fmt.Errorf("wsn: concrete dialect expression %q must not contain wildcards", t.Expr)
		}
	case DialectFull:
		// Any combination of names, *, //, and a trailing "." is legal.
	default:
		return fmt.Errorf("wsn: unknown topic dialect %q", t.Dialect)
	}
	return nil
}

// splitTopic splits a concrete topic path into segments.
func splitTopic(s string) []string {
	return strings.Split(strings.Trim(s, "/"), "/")
}

// splitPattern tokenizes a full-dialect pattern: each "//" becomes an
// empty segment (the descendant wildcard), other segments pass through.
// A plain Trim-and-split would erase a leading "//".
func splitPattern(s string) []string {
	const descend = "\x00"
	s = strings.ReplaceAll(s, "//", "/"+descend+"/")
	var out []string
	for _, p := range strings.Split(s, "/") {
		switch p {
		case "":
			// Separator noise from the rewrite or a single leading "/".
		case descend:
			out = append(out, "")
		default:
			out = append(out, p)
		}
	}
	return out
}

// matchFull matches pattern segments against topic segments.
// Pattern segment meanings: "name" exact, "*" any one segment,
// "" (from "//") any number of segments, "." the node itself or, as
// "//." , the node and subtree.
//
// It is the classic glob walk. "//" is the only segment that matches a
// variable number of topic segments, and when a later segment fails to
// match, only the most recent "//" needs to absorb one more topic
// segment: it can absorb anything an earlier one could. So a match
// costs at most len(pattern)×len(topic) steps however many wildcards
// the subscriber wrote, where retrying every split at every "//" is
// exponential in them.
func matchFull(pattern, topic []string) bool {
	p, t := 0, 0
	star, starT := -1, 0 // the most recent "//" and where its absorption ends
	for t < len(topic) {
		switch {
		case p < len(pattern) && pattern[p] == "":
			star, starT = p, t
			p++
		case p < len(pattern) && pattern[p] != "." && (pattern[p] == "*" || pattern[p] == topic[t]):
			p++
			t++
		case star >= 0:
			starT++
			p, t = star+1, starT
		default:
			return false
		}
	}
	// The topic is consumed: the rest must be "//"s, optionally closed
	// by a final "." naming the node reached. A "." anywhere else never
	// matches.
	for p < len(pattern) && pattern[p] == "" {
		p++
	}
	if p == len(pattern)-1 && pattern[p] == "." {
		p++
	}
	return p == len(pattern)
}
