package sweepd

import (
	"net/http"
	"time"
)

var direct = http.Client{Timeout: time.Second} // want

func forward(resp *http.Response) {
	time.Sleep(retryAfter(resp, time.Second)) // want: a second Retry-After loop
}
