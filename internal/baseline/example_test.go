package baseline_test

import (
	"fmt"

	"github.com/qoslab/amf/internal/baseline"
	"github.com/qoslab/amf/internal/matrix"
)

// UPCC predicts an unknown QoS value from similar users' observations:
// users 0 and 1 are perfectly correlated, so user 1's missing value for
// service 2 is user 1's mean (3) plus user 0's deviation on that service
// (3 − 2 = 1).
func ExampleTrainUPCC() {
	m := matrix.NewSparse(2, 3)
	m.Append(0, 0, 1)
	m.Append(0, 1, 2)
	m.Append(0, 2, 3)
	m.Append(1, 0, 2)
	m.Append(1, 1, 4)
	// (1, 2) is unobserved.
	m.Freeze()

	upcc := baseline.TrainUPCC(m)
	v, ok := upcc(1, 2)
	fmt.Printf("predicted=%v value=%.0f\n", ok, v)
	// Output:
	// predicted=true value=4
}

// PMF factorizes the observed matrix and reconstructs a held-out cell of
// a rank-1 matrix closely.
func ExampleTrainPMF() {
	const n = 8
	m := matrix.NewSparse(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 4 && j == 4 {
				continue // held out
			}
			m.Append(i, j, float64((i+1)*(j+1)))
		}
	}
	m.Freeze()

	pmf, err := baseline.TrainPMF(m, n*n+1, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	v, _ := pmf(4, 4)
	fmt.Printf("truth 25, predicted within 15%%: %v\n", v > 21.25 && v < 28.75)
	// Output:
	// truth 25, predicted within 15%: true
}
