package mapreduce_test

import (
	"fmt"
	"sort"

	"speed/internal/mapreduce"
)

// ExampleBagOfWords counts words across documents in parallel.
func ExampleBagOfWords() {
	counts, err := mapreduce.BagOfWords([]string{
		"the quick brown fox",
		"the lazy dog and the quick cat",
	}, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(counts["the"], counts["quick"], counts["zebra"])
	// Output:
	// 3 2 0
}

// ExampleRun shows the generic engine with custom types.
func ExampleRun() {
	type purchase struct {
		Customer string
		Cents    int
	}
	totals, err := mapreduce.Run(
		[]purchase{
			{"ada", 150}, {"bob", 99}, {"ada", 250},
		},
		func(p purchase, emit func(string, int)) error {
			emit(p.Customer, p.Cents)
			return nil
		},
		func(customer string, cents []int) (int, error) {
			sum := 0
			for _, c := range cents {
				sum += c
			}
			return sum, nil
		},
		mapreduce.Config[int]{Workers: 2},
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println(n, totals[n])
	}
	// Output:
	// ada 400
	// bob 99
}
