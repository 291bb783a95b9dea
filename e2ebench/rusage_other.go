//go:build !linux

package main

import "os"

// maxRSSKB is not measured off Linux, where rusage reports other units.
func maxRSSKB(*os.ProcessState) int64 { return 0 }

func lowerPeakRSS() {}
