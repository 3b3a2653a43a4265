//go:build purego

package a

func Kernel() int { return tagHelper() }
