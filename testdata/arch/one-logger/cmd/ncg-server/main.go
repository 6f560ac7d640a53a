package main

import (
	"log" // want
	"log/slog"
	"os"
)

func main() {
	slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	log.Printf("listening on %s", ":8080")
}
