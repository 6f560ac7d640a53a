package sweepd

import "os"

// The job store writes and cuts checkpoints; only the cache writes nothing.
func cut(path string, keep int64) error { return os.Truncate(path, keep) }
