//go:build !amd64

package cpufeat

const avx2 = false
