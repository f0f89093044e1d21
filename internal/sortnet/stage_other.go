//go:build !amd64

package sortnet

// haveAVX2 is false off amd64: Net always runs its scalar stage.
const haveAVX2 = false

func stageAVX2(keys, idx []int, k, j int) int {
	panic("sortnet: AVX2 stage on a non-amd64 build")
}
