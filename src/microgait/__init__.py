"""microgait: Int8 policy quantization, cycle/power budgeting, and gait
selection for microcontroller-class locomotion controllers."""
