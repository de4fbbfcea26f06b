"""Test package."""
