"""cragrank: time-varying climber ratings and route difficulty from ascent logs."""
