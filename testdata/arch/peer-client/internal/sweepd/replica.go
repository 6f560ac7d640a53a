package sweepd

import web "net/http"

var push = &web.Transport{MaxIdleConns: 4} // want: under an aliased import
