"""Figure-regeneration benchmark; see METHODS.md."""
