package sweepd

import "bytes"

// Tests may split what they read any way they like.
var firstLine = bytes.IndexByte([]byte("a\nb"), '\n')
