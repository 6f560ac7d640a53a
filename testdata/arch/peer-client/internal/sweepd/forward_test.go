package sweepd

import "net/http"

// Tests may dial a daemon with a client of their own.
var testClient = &http.Client{}
