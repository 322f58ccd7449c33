//go:build !go1.24

package main

import (
	"net/http"
	"net/http/httptest"
	"time"
)

// h2c needs http.Protocols (Go 1.24) for cleartext HTTP/2; older
// toolchains serve HTTP/1.1, which the serve-http check rejects.
func h2c(handler http.Handler) (*httptest.Server, *http.Client) {
	return httptest.NewServer(handler), &http.Client{Timeout: 30 * time.Second}
}
