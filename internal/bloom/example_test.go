package bloom_test

import (
	"fmt"

	"piersearch/internal/bloom"
)

// Example shows the Gnutella QRP use of a Bloom filter: a leaf encodes its
// filename keywords and ships the filter to its ultrapeer, which then
// forwards only plausibly-matching queries.
func Example() {
	f := bloom.New(1<<13, 4)
	for _, keyword := range []string{"madonna", "like", "prayer"} {
		f.AddString(keyword)
	}
	fmt.Println(f.TestString("madonna"))
	fmt.Println(f.TestString("beatles"))
	// Output:
	// true
	// false
}
