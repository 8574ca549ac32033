import program

program.use_checkout_sources()
