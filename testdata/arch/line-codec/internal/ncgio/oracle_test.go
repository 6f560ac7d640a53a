package ncgio

import "encoding/json"

// The reflection codec is the test oracle.
func oracle(v any) ([]byte, error) { return json.Marshal(v) }
