package ncgio

import (
	"encoding/json" // want
	"strconv"
)

func MarshalCell(v any) ([]byte, error) { return json.Marshal(v) }

func quote(s string) string { return strconv.Quote(s) }
