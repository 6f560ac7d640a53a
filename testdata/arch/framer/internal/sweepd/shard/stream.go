package shard

import "bufio"

// Only shard.go's lease stream is exempt, not its package.
func peek(br *bufio.Reader) ([]byte, error) { return br.ReadSlice('\n') } // want
