// Package arima implements AutoRegressive Integrated Moving Average models
// from scratch on the Go standard library: differencing, Yule-Walker and
// least-squares AR estimation, Hannan-Rissanen ARMA estimation, AIC-based
// order selection, and rolling one-step forecasting with its standard
// error.
//
// F-DETA's baseline detectors (the ARIMA detector and the Integrated ARIMA
// detector of ref [2] in the paper) consume exactly two things from this
// package: rolling one-step point forecasts and confidence-interval
// half-widths. Attack generators use the same forecasts to pin injected
// readings to the confidence bound, reproducing the "attack poisons the
// model" feedback loop described in Section VIII-B of the paper.
package arima
