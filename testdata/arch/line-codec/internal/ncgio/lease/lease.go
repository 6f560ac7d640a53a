// Package lease is a sub-package of ncgio; the rule reaches it too.
package lease

import js "encoding/json" // want

func Marshal(v any) ([]byte, error) { return js.Marshal(v) }
