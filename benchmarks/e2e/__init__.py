"""End-to-end benchmark: five seeded workloads, see README.md."""
