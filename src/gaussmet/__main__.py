"""``python -m gaussmet`` runs the command-line front end."""

from .cli import main

main()
