package server

import "net/http"

// MuxPatterns lists the patterns registered on h, the Handler of a
// Server or of a cluster Gateway, in registration order.
func MuxPatterns(h http.Handler) []string { return h.(*Mux).patterns }
