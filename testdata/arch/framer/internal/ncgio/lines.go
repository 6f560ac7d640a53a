package ncgio

import "bytes"

// The one framer.
func Lines(data []byte) int { return bytes.IndexByte(data, '\n') }
