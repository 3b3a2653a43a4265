// Package b is the other package whose test reaches a.Oracle.
package b
