// Command alertsink is a minimal webhook receiver for local demos of the
// alert lifecycle: it accepts POSTs on -listen and prints each request
// body as one line on stdout, so a shell can grep the event stream a
// streamd -alert-webhook run delivers.
//
// Usage:
//
//	alertsink -listen 127.0.0.1:9090 &
//	streamd -alert-crit 5 -alert-webhook http://127.0.0.1:9090 ...
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to accept webhook POSTs on")
	flag.Parse()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alertsink: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# sink listening on %s\n", ln.Addr())
	// One line per delivery even if a future sender posts concurrently.
	var mu sync.Mutex
	err = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		fmt.Printf("%s\n", body)
		mu.Unlock()
	}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "alertsink: %v\n", err)
		os.Exit(1)
	}
}
