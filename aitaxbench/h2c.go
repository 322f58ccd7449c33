//go:build go1.24

package main

import (
	"net/http"
	"net/http/httptest"
	"time"
)

// h2c serves handler on a loopback listener speaking only cleartext
// HTTP/2, and returns a client that reaches it over one connection.
func h2c(handler http.Handler) (*httptest.Server, *http.Client) {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	ts := httptest.NewUnstartedServer(handler)
	ts.Config.Protocols = &p
	ts.Start()
	client := &http.Client{
		Transport: &http.Transport{Protocols: &p},
		Timeout:   30 * time.Second,
	}
	return ts, client
}
