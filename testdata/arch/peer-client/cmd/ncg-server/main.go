package main

import "net/http"

func main() {
	c := &http.Client{} // want
	_ = c
	srv := &http.Server{Addr: ":8080"}
	_ = srv
}
