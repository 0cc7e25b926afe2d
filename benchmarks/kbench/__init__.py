"""kbench: the one seeded benchmark every performance claim in this
repository is measured with.  See README.md in this directory."""
