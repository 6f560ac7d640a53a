package shard

import "bufio"

// The lease stream reads line by line: a blank line is a heartbeat.
func next(br *bufio.Reader) ([]byte, error) { return br.ReadBytes('\n') }
