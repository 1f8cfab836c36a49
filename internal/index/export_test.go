package index

// BuildRanges is build with its range count exposed, for the test that
// holds every p to the one-goroutine reference.
var BuildRanges = build
