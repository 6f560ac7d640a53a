package dynamics

// RunReference exposes the naive round loop of reference_test.go to the
// external tests of this package, which may import ncgio.
var RunReference = runReference
