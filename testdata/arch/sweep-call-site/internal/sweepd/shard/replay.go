package shard

import engine "repro/internal/dynamics"

var sweep = engine.SweepContext // want: a method value under an aliased import
