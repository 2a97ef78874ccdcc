package server

import (
	"net/http"
	"net/url"
	"path"
	"strings"
)

// Mux is the router of both hops, the server's and the gateway's: an
// http.ServeMux, plus an exact-match table that finds a literal route
// without the ServeMux's pattern walk. Every pattern is registered in the
// ServeMux as it would be without Mux; a literal one — "METHOD /path"
// with a clean path, no {wildcard}, no trailing slash and no host — is
// also indexed by its path with its method. ServeHTTP serves a request
// from the table only when its path matches exactly, its URL had no
// escaped form of its own (RawPath is empty) and its method is the
// route's; everything else — a miss, a wrong method (405 with Allow),
// HEAD on a GET route, an unclean path (redirect), a %2F-escaped path, a
// prefix pattern — goes to the ServeMux, which answers it as it always
// did. A hit reaches the handler the ServeMux would have picked, since a
// literal method-and-path pattern is the most specific match for its
// request, but without the request's Pattern and path values set: no
// handler either hop registers reads them.
//
// A host-qualified pattern would outrank a literal route the table
// serves, so Handle refuses one. The zero value is ready to use.
// Register every route before serving: the table is not guarded against
// a concurrent Handle.
type Mux struct {
	mux   http.ServeMux
	exact map[string][]muxRoute
	// patterns is every pattern registered, in order: what the router
	// serves, which its equivalence test replays on a plain ServeMux.
	patterns []string
}

// muxRoute is one literal route of a path: its method and handler.
type muxRoute struct {
	method string
	h      http.Handler
}

// Handle registers h for pattern, as http.ServeMux.Handle does.
func (m *Mux) Handle(pattern string, h http.Handler) {
	m.mux.Handle(pattern, h) // panics on a bad or duplicate pattern, first
	m.patterns = append(m.patterns, pattern)
	method, p := "", pattern
	if i := strings.IndexAny(pattern, " \t"); i >= 0 {
		method, p = pattern[:i], strings.TrimLeft(pattern[i+1:], " \t")
	}
	if !strings.HasPrefix(p, "/") {
		panic("server: Mux takes no host-qualified pattern: " + pattern)
	}
	if method == "" || !literalPath(p) {
		return
	}
	if m.exact == nil {
		m.exact = make(map[string][]muxRoute)
	}
	m.exact[p] = append(m.exact[p], muxRoute{method: method, h: h})
}

// HandleFunc registers h for pattern, as http.ServeMux.HandleFunc does.
func (m *Mux) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	m.Handle(pattern, http.HandlerFunc(h))
}

// literalPath reports whether a pattern's path matches only requests for
// exactly that path: it is clean, ends in no slash, holds no wildcard and
// reads the same escaped, so a request whose path equals it is one the
// ServeMux would neither redirect nor unescape.
func literalPath(p string) bool {
	return !strings.HasSuffix(p, "/") && path.Clean(p) == p &&
		!strings.ContainsAny(p, "{}%") && (&url.URL{Path: p}).EscapedPath() == p
}

// ServeHTTP dispatches r: from the exact-match table when it holds r's
// path and method, through the ServeMux otherwise.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawPath == "" {
		for _, rt := range m.exact[r.URL.Path] {
			if rt.method == r.Method {
				rt.h.ServeHTTP(w, r)
				return
			}
		}
	}
	m.mux.ServeHTTP(w, r)
}
