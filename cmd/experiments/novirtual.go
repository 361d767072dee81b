//go:build !goexperiment.synctest

package main

import "errors"

// virtual needs testing/synctest, which Go 1.24 builds only under the experiment.
func virtual() error {
	return errors.New("-fig4, -table2, -ablation and -ordered run in virtual time: build with GOEXPERIMENT=synctest")
}
