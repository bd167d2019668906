"""One module per ``varword`` command group.

Each module holds its group's handlers and a ``register(sub)`` that adds
the group's parser, with its commands, to the root subparsers.  The CLI
imports only the module that argv names.
"""
