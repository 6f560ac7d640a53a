package sweepd

import "os"

// A test of the cache may plant the checkpoints it reads.
func plant(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
