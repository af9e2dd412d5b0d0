package main

import "testing"

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	if err := run([]string{"-rate", "0.02", "-seeds", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	if err := run([]string{"-ablation", "-rate", "0.02", "-seeds", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates("0.01, 0.1,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 3 || rates[0] != 0.01 || rates[2] != 1 {
		t.Fatalf("rates = %v", rates)
	}
	if got, err := parseRates(""); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	if _, err := parseRates("abc"); err == nil {
		t.Fatal("bad rate accepted")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "7"}); err == nil {
		t.Fatal("figure 7 accepted")
	}
}

func TestRunFig5Small(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	if err := run([]string{"-fig", "5", "-seeds", "1", "-rates", "0.05"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6Small(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	if err := run([]string{"-fig", "6", "-ratio", "1000", "-seeds", "1", "-rates", "0.05"}); err != nil {
		t.Fatal(err)
	}
}
