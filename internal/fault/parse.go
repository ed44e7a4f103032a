package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds the scenario list from a CLI spec. The grammar composes
// scenarios with "+":
//
//	dropout:RATE              per-slot loss probability
//	outage:RATE[,DURATION]    expected windows/week, window length in slots
//	stuckat:RATE[,DURATION]   expected windows/week, window length in slots
//	spike:RATE[,MAGNITUDE]    per-slot probability, multiplier
//	clockslip:RATE[,DURATION] expected windows/week, window length in slots
//
// e.g. "dropout:0.1+spike:0.01,20". "none" or "" parses to no scenarios.
func Parse(spec string) ([]Scenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	var out []Scenario
	for _, part := range strings.Split(spec, "+") {
		sc, err := parseOne(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func parseOne(part string) (Scenario, error) {
	name, argstr, ok := strings.Cut(part, ":")
	if !ok {
		return Scenario{}, fmt.Errorf("fault: spec %q missing ':RATE' (want e.g. dropout:0.1)", part)
	}
	var sc Scenario
	switch name {
	case "dropout":
		sc.Kind = Dropout
	case "outage":
		sc.Kind = Outage
	case "stuckat":
		sc.Kind = StuckAt
	case "spike":
		sc.Kind = Spike
	case "clockslip":
		sc.Kind = ClockSlip
	default:
		return Scenario{}, fmt.Errorf("fault: unknown scenario %q (want dropout, outage, stuckat, spike, or clockslip)", name)
	}
	args := strings.Split(argstr, ",")
	if len(args) > 2 {
		return Scenario{}, fmt.Errorf("fault: %s takes at most 2 arguments, got %q", name, argstr)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
	if err != nil {
		return Scenario{}, fmt.Errorf("fault: %s rate %q: %v", name, args[0], err)
	}
	sc.Rate = rate
	if len(args) == 2 {
		arg := strings.TrimSpace(args[1])
		if sc.Kind == Spike {
			mag, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return Scenario{}, fmt.Errorf("fault: spike magnitude %q: %v", arg, err)
			}
			sc.Magnitude = mag
		} else {
			dur, err := strconv.Atoi(arg)
			if err != nil {
				return Scenario{}, fmt.Errorf("fault: %s duration %q: %v", name, arg, err)
			}
			sc.Duration = dur
		}
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}
