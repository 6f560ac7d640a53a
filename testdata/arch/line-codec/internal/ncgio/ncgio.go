package ncgio

import "encoding/json"

// DecodeState is the lenient reader of the hand-editable state file.
func DecodeState(data []byte, v any) error { return json.Unmarshal(data, v) }
