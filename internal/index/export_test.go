package index

var (
	// BuildRanges is build with its range count exposed, for the test
	// that holds every p to the one-goroutine reference.
	BuildRanges = build
	// OpenReadFile is the read-file path OpenMapped takes where there is
	// no mmap, for the test that holds it to the mapped one.
	OpenReadFile = openReadFile
)
