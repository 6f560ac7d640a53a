package sweepd

import (
	"net/http"
	"time"
)

// The one peer client may build its client and read Retry-After.
var peer = &http.Client{Transport: &http.Transport{}}

func retryAfter(resp *http.Response, max time.Duration) time.Duration { return max }
